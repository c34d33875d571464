package experiments

import (
	"fmt"
	"time"

	"lightvm/internal/cluster"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
)

func init() {
	register("ext-faults", extFaults)
}

// faultRates is the injection-rate sweep: rate 0 doubles as the
// regression anchor (it must reproduce the undisturbed control plane).
var faultRates = []float64{0, 0.04, 0.08, 0.12, 0.16, 0.20}

// faultKinds are the fault classes ext-faults injects: the toolstack
// kinds plus whole-host failures (the gray kinds belong to ext-gray).
var faultKinds = []faults.Kind{
	faults.KindTxnConflict, faults.KindStoreStall, faults.KindHandshakeStall,
	faults.KindMigrationDrop, faults.KindDaemonCrash, faults.KindHostFailure,
}

// faultCell is one (mode, rate) measurement.
type faultCell struct {
	createP50, createP99 float64
	migP50, migP99       float64
	avail                float64
	rep                  *cluster.ChurnReport
}

// extFaults — deterministic fault injection against both control
// planes (robustness extension; the paper's §7.1 edge scenario run on a
// bad day). A two-host cluster churns through creations and handover
// migrations while the fault plane injects XenStore transaction
// conflicts, store stalls, lost xenbus handshake events, migration
// stream drops, pool-daemon crashes and whole-host crashes at a swept
// rate. Every fault exercises a recovery path — txn backoff/retry,
// device re-attach, stream resume (noxs) or rollback (xl), cold-path
// fallback, heartbeat-detected failover onto the surviving host while
// the crashed one reboots empty — and the table reports what that
// recovery costs: creation and migration p50/p99 plus VM availability.
func extFaults(o Options) (Result, error) {
	modes := []struct {
		name string
		mode toolstack.Mode
	}{
		{"xl", toolstack.ModeXL},
		{"chaos", toolstack.ModeLightVM},
	}
	n := o.scaled(40, 12)

	cells := make([]faultCell, len(modes)*len(faultRates))
	err := o.runSeries(len(cells), func(j int) error {
		mi, ri := j/len(faultRates), j%len(faultRates)
		// Seeds are derived per cell so every (mode, rate) owns an
		// independent but reproducible timeline.
		cell, err := runFaultChurn(modes[mi].mode, faultRates[ri], o.Seed+uint64(j)*7919, n, o.clusterWorkers())
		if err != nil {
			return fmt.Errorf("ext-faults %s rate %.2f: %w", modes[mi].name, faultRates[ri], err)
		}
		cells[j] = cell
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	t := metrics.NewTable("Extension: fault rate vs control-plane latency and availability",
		"rate",
		"xl_create_p50_ms", "xl_create_p99_ms", "xl_mig_p50_ms", "xl_mig_p99_ms", "xl_avail_pct",
		"chaos_create_p50_ms", "chaos_create_p99_ms", "chaos_mig_p50_ms", "chaos_mig_p99_ms", "chaos_avail_pct")
	virtMS := make([]float64, 0, len(cells))
	for ri, rate := range faultRates {
		xl := cells[0*len(faultRates)+ri]
		ch := cells[1*len(faultRates)+ri]
		t.AddRow(rate,
			xl.createP50, xl.createP99, xl.migP50, xl.migP99, xl.avail,
			ch.createP50, ch.createP99, ch.migP50, ch.migP99, ch.avail)
		virtMS = append(virtMS, xl.rep.MakespanMS, ch.rep.MakespanMS)
	}
	for mi, m := range modes {
		var injected uint64
		var detected, failovers int
		var unavail metrics.Series
		for ri := range faultRates {
			r := cells[mi*len(faultRates)+ri].rep
			injected += r.FaultsInjected
			detected += r.Detected
			failovers += r.Failovers
			unavail.Values = append(unavail.Values, r.FailoverMS.Values...)
		}
		t.Note("%s: %d faults injected across the sweep, %d host crashes detected, %d VMs failed over (mean unavailability %.1f ms)",
			m.name, injected, detected, failovers, unavail.Mean())
	}
	t.Note("faults: store txn conflicts + stalls, lost xenbus handshakes, migration stream drops, pool-daemon crashes, host crashes")
	t.Note("recovery: txn backoff/retry, device re-attach, stream resume (chaos) or rollback (xl), cold-path fallback, §7.1 failover + empty reboot")
	return Result{
		ID:        "ext-faults",
		Paper:     "robustness extension: control-plane recovery under injected faults (no paper figure)",
		Table:     t,
		VirtualMS: maxOf(virtMS),
	}, nil
}

// runFaultChurn drives one (mode, rate) cell: a two-host cluster
// under arrival waves with handover migrations. Availability counts
// every fault-caused outage against the total operations attempted:
// failed creations, failed handovers, and VMs lost to a crashed host
// (recovered or not, they were down).
func runFaultChurn(mode toolstack.Mode, rate float64, seed uint64, n, workers int) (faultCell, error) {
	cfg := cluster.ShardedConfig{
		Machine: sched.Machine{Name: "fault-host", Cores: 4, Dom0Cores: 1, MemoryGB: 32},
		Workers: workers,
		Seed:    seed,
	}
	if rate > 0 {
		cfg.Faults = faults.Plan{Rate: rate, Kinds: faultKinds}
	}
	sc, err := cluster.NewSharded(cfg, []cluster.HostPool{
		{Name: mode.String(), Mode: mode, Hosts: 2, VMs: n, Image: guest.Daytime()},
	})
	if err != nil {
		return faultCell{}, err
	}
	// Every third subscriber moves to the other host (§7.1 churn).
	const waves = 4
	rep, err := sc.RunChurn(cluster.ChurnSpec{
		Waves:          waves,
		WavePeriod:     2 * time.Second,
		MigratePerWave: (n + 3*waves - 1) / (3 * waves),
		Drain:          60 * time.Second,
	})
	if err != nil {
		return faultCell{}, err
	}
	if rep.Unplaced > 0 || rep.DoubleStarts > 0 || rep.FsckViolated > 0 {
		return faultCell{}, fmt.Errorf("%d unplaced, %d double-starts, %d fsck violations (want 0/0/0)",
			rep.Unplaced, rep.DoubleStarts, rep.FsckViolated)
	}
	p := rep.Pools[0]
	failed := p.CreateFailed + p.MigrateFailed + rep.Failovers
	total := p.Created + p.Migrations + failed
	return faultCell{
		createP50: p.CreateMS.Percentile(50),
		createP99: p.CreateMS.Percentile(99),
		migP50:    p.MigrateMS.Percentile(50),
		migP99:    p.MigrateMS.Percentile(99),
		avail:     100 * (1 - float64(failed)/float64(total)),
		rep:       rep,
	}, nil
}

package experiments

import (
	"fmt"
	"time"

	"lightvm/internal/cluster"
	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

func init() {
	register("ext-gray", extGray)
}

// grayDetects sweeps the dead-declaration timeout
// (ShardedConfig.DeadAfter): how long the controller tolerates silence
// before fencing a member and re-placing its VMs. Short timeouts recover fast but misfire on hosts that are
// merely slow; long ones never misfire but leave VMs down longer.
var grayDetects = []time.Duration{
	400 * time.Millisecond,
	800 * time.Millisecond,
	1600 * time.Millisecond,
}

// grayRates is the per-opportunity probability that a host turns gray
// (slow, flapping, or partitioned) at each of its heartbeats. With ten
// beats a second, rate r means ~10r episodes per host per kind per
// second, each lasting 0.4–3.8 s — these values keep faults episodic
// rather than continuous. Rate 0 is the regression anchor: no work
// beyond heartbeats, and it must report zero failovers of any kind.
var grayRates = []float64{0, 0.003, 0.01}

// grayCell is one (mode, detect, rate) measurement.
type grayCell struct {
	unavailP50, unavailP99 float64
	rep                    *cluster.ChurnReport
}

// grayKinds are the gray fault classes ext-gray injects.
var grayKinds = []faults.Kind{faults.KindHostSlow, faults.KindPartition, faults.KindHostFlap}

// extGray — gray-failure resilience (robustness extension; no paper
// figure). Hosts do not only fail cleanly: they get slow, they flap,
// they partition — and a naive monitor either double-runs a domain
// (split brain) or fails over hosts that were never down. This figure
// sweeps the detection timeout against the gray-fault rate on a
// four-host cluster under placement churn and reports what each policy
// point costs: per-VM unavailability p50/p99, false-positive
// failovers, and the double-start count — which fencing must hold at
// zero everywhere. Every cell ends with a cluster-wide double-start
// audit plus a per-host toolstack fsck, both of which must be clean.
func extGray(o Options) (Result, error) {
	modes := []struct {
		name string
		mode toolstack.Mode
	}{
		{"xl", toolstack.ModeXL},
		{"chaos", toolstack.ModeLightVM},
	}
	n := o.scaled(30, 10)

	type point struct {
		detect time.Duration
		rate   float64
	}
	points := make([]point, 0, len(grayDetects)*len(grayRates))
	for _, d := range grayDetects {
		for _, r := range grayRates {
			points = append(points, point{d, r})
		}
	}

	cells := make([]grayCell, len(modes)*len(points))
	err := o.runSeries(len(cells), func(j int) error {
		mi, pi := j/len(points), j%len(points)
		p := points[pi]
		cell, err := runGrayChurn(modes[mi].mode, p.detect, p.rate, o.Seed+uint64(j)*7919, n, o.clusterWorkers())
		if err != nil {
			return fmt.Errorf("ext-gray %s detect %v rate %.3f: %w",
				modes[mi].name, p.detect, p.rate, err)
		}
		cells[j] = cell
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	t := metrics.NewTable("Extension: gray-failure detection policy vs availability and safety",
		"detect_ms", "rate",
		"xl_unavail_p50_ms", "xl_unavail_p99_ms", "xl_falsepos", "xl_double",
		"chaos_unavail_p50_ms", "chaos_unavail_p99_ms", "chaos_falsepos", "chaos_double")
	virtMS := make([]float64, 0, len(cells))
	for pi, p := range points {
		xl := cells[0*len(points)+pi]
		ch := cells[1*len(points)+pi]
		t.AddRow(float64(p.detect)/float64(time.Millisecond), p.rate,
			xl.unavailP50, xl.unavailP99, float64(xl.rep.FalsePositives), float64(xl.rep.DoubleStarts),
			ch.unavailP50, ch.unavailP99, float64(ch.rep.FalsePositives), float64(ch.rep.DoubleStarts))
		virtMS = append(virtMS, xl.rep.MakespanMS, ch.rep.MakespanMS)
	}
	for mi, m := range modes {
		var agg cluster.ChurnReport
		for pi := range points {
			r := cells[mi*len(points)+pi].rep
			agg.Detected += r.Detected
			agg.Failovers += r.Failovers
			agg.Fenced += r.Fenced
			agg.Saturated += r.Saturated
		}
		t.Note("%s: %d host deaths detected, %d VMs failed over, %d stale acks fenced, %d placements backpressured",
			m.name, agg.Detected, agg.Failovers, agg.Fenced, agg.Saturated)
	}
	t.Note("gray faults: slow hosts (cost dilation, late beats), flaps (crash + empty reboot), partitions (cut edges)")
	t.Note("safety: zero double-starts and zero toolstack fsck violations in every cell (enforced)")
	return Result{
		ID:        "ext-gray",
		Paper:     "robustness extension: gray-failure detection, fenced failover (no paper figure)",
		Table:     t,
		VirtualMS: maxOf(virtMS),
	}, nil
}

// runGrayChurn drives one (mode, detect, rate) cell: a four-host
// cluster placing, migrating and retiring VMs while the gray plane
// degrades hosts underneath the controller. Injection stops with the
// last wave so every host returns, fenced hosts reboot empty, and the
// run drains to a steady state the safety audit can judge.
func runGrayChurn(mode toolstack.Mode, detect time.Duration, rate float64, seed uint64, n, workers int) (grayCell, error) {
	spec := cluster.ChurnSpec{
		Waves:          8,
		WavePeriod:     time.Second,
		MigratePerWave: 1,
		DepartPerWave:  1,
		Drain:          costs.GrayPartitionMin + costs.GrayPartitionExtra + costs.GrayFlapMin + costs.GrayFlapExtra + detect,
	}
	cfg := cluster.ShardedConfig{
		Machine:   sched.Machine{Name: "gray-host", Cores: 4, Dom0Cores: 1, MemoryGB: 32},
		Workers:   workers,
		Seed:      seed,
		DeadAfter: detect,
	}
	if rate > 0 {
		end := costs.HeartbeatPeriod/2 + time.Duration(spec.Waves)*spec.WavePeriod
		cfg.Faults = faults.Plan{Rate: rate, Kinds: grayKinds, Window: faults.Window{To: sim.Time(0).Add(end)}}
	}
	sc, err := cluster.NewSharded(cfg, []cluster.HostPool{
		{Name: mode.String(), Mode: mode, Hosts: 4, VMs: n, Image: guest.Daytime()},
	})
	if err != nil {
		return grayCell{}, err
	}
	rep, err := sc.RunChurn(spec)
	if err != nil {
		return grayCell{}, err
	}
	switch {
	case rep.DoubleStarts > 0 || rep.FsckViolated > 0:
		return grayCell{}, fmt.Errorf("%d double-starts, %d fsck violations (want 0/0)", rep.DoubleStarts, rep.FsckViolated)
	case rep.Unplaced > 0:
		return grayCell{}, fmt.Errorf("%d VMs unplaced after the drain", rep.Unplaced)
	case rate == 0 && (rep.Detected != 0 || rep.Failovers != 0):
		return grayCell{}, fmt.Errorf("rate-0 cell saw %d failovers", rep.Failovers)
	}
	return grayCell{
		unavailP50: rep.FailoverMS.Percentile(50),
		unavailP99: rep.FailoverMS.Percentile(99),
		rep:        rep,
	}, nil
}

package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/migrate"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

// testMachine is a member of the sharded fleet in these tests.
var testMachine = sched.Machine{Name: "member", Cores: 4, Dom0Cores: 1, MemoryGB: 32}

func testPools() []HostPool {
	return []HostPool{
		{Name: "chaos", Mode: toolstack.ModeLightVM, Hosts: 4, VMs: 120, Image: guest.Daytime()},
		{Name: "xl", Mode: toolstack.ModeXL, Hosts: 2, VMs: 24, Image: guest.Daytime()},
	}
}

func testSpec() ChurnSpec {
	return ChurnSpec{
		Waves:          3,
		WavePeriod:     2 * time.Second,
		MigratePerWave: 2,
		DepartPerWave:  1,
		FailAt:         []time.Duration{3 * time.Second},
		Drain:          30 * time.Second,
	}
}

func runChurn(t *testing.T, workers int, spec ChurnSpec) *ChurnReport {
	t.Helper()
	return runChurnCfg(t, ShardedConfig{Machine: testMachine, Workers: workers, Seed: 42}, testPools(), spec)
}

// runChurnCfg builds a cluster from cfg and pools and runs spec.
func runChurnCfg(t *testing.T, cfg ShardedConfig, pools []HostPool, spec ChurnSpec) *ChurnReport {
	t.Helper()
	_, rep := runSharded(t, cfg, pools, spec, nil)
	return rep
}

// runSharded is runChurnCfg with a hook that runs after the cluster is
// built and before the churn starts (white-box fault scheduling).
func runSharded(t *testing.T, cfg ShardedConfig, pools []HostPool, spec ChurnSpec, arm func(sc *Sharded)) (*Sharded, *ChurnReport) {
	t.Helper()
	sc, err := NewSharded(cfg, pools)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	if arm != nil {
		arm(sc)
	}
	rep, err := sc.RunChurn(spec)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	return sc, rep
}

// at schedules fn on host g's own clock at virtual time d: the tests'
// deterministic stand-in for an injector decision.
func at(sc *Sharded, g int, d time.Duration, fn func(a *hostAgent)) {
	a := sc.agents[g]
	a.shard.Clock().Schedule(sim.Time(0).Add(d), func() { fn(a) })
}

// TestShardedChurnDeterministicAcrossWorkers is the core contract of
// the sharded cluster: the worker count is a wall-clock knob only. The
// full report — per-VM latency series, failover timings, engine window
// and message counts, makespan — must be identical at 1, 2 and 8
// workers, fault-free and with the gray or the toolstack fault plane
// armed.
func TestShardedChurnDeterministicAcrossWorkers(t *testing.T) {
	plans := []struct {
		name string
		plan faults.Plan
	}{
		{"fault-free", faults.Plan{}},
		{"gray", faults.Plan{
			Rate:   0.01,
			Kinds:  []faults.Kind{faults.KindHostSlow, faults.KindPartition, faults.KindHostFlap},
			Window: faults.Window{To: sim.Time(0).Add(6 * time.Second)},
		}},
		{"toolstack", faults.Plan{
			Rate: 0.1,
			Kinds: []faults.Kind{faults.KindTxnConflict, faults.KindStoreStall, faults.KindHandshakeStall,
				faults.KindMigrationDrop, faults.KindDaemonCrash, faults.KindHostFailure},
		}},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			cfg := ShardedConfig{Machine: testMachine, Workers: 1, Seed: 42, Faults: p.plan}
			base := runChurnCfg(t, cfg, testPools(), testSpec())
			if p.plan.Rate > 0 && base.FaultsInjected == 0 {
				t.Fatal("the armed fault plane never fired")
			}
			for _, workers := range []int{2, 8} {
				cfg.Workers = workers
				rep := runChurnCfg(t, cfg, testPools(), testSpec())
				if !reflect.DeepEqual(base, rep) {
					t.Errorf("workers=%d diverged from workers=1:\n  w1: %+v\n  w%d: %+v",
						workers, base, workers, rep)
				}
			}
		})
	}
}

// TestShardedChurnOutcome checks the workload actually exercised the
// protocol: placements landed, migrations and departures happened, the
// injected host death was detected by heartbeat silence and every lost
// VM came back on a survivor, and the surviving fleet passes the
// cross-layer fsck.
func TestShardedChurnOutcome(t *testing.T) {
	rep := runChurn(t, 2, testSpec())

	if rep.HostsFailed != 1 {
		t.Errorf("HostsFailed = %d, want 1", rep.HostsFailed)
	}
	if rep.Failovers == 0 {
		t.Error("no VMs failed over after the host death")
	}
	if rep.FailoverMS.Len() != rep.Failovers {
		t.Errorf("failover latencies recorded for %d of %d failovers",
			rep.FailoverMS.Len(), rep.Failovers)
	}
	if rep.Unplaced != 0 {
		t.Errorf("%d VMs still in flight at the end of the run", rep.Unplaced)
	}
	if rep.FsckViolated != 0 {
		t.Errorf("fsck found %d violations on surviving hosts", rep.FsckViolated)
	}
	totalVMs, placed, created, migrations := 0, 0, 0, 0
	for _, p := range rep.Pools {
		totalVMs += 0
		placed += p.Placed
		created += p.Created
		migrations += p.Migrations
		if p.CreateMS.Len() != p.Created {
			t.Errorf("pool %s: %d creations but %d latencies", p.Name, p.Created, p.CreateMS.Len())
		}
	}
	_ = totalVMs
	if migrations == 0 {
		t.Error("no live migration completed")
	}
	// Every VM is placed, departed, or was re-created by failover:
	// placed + departures == VMs, created == placed + departures + failovers' extra creations.
	wantVMs := 0
	for _, p := range testPools() {
		wantVMs += p.VMs
	}
	departed := wantVMs - placed
	if departed < 0 {
		t.Errorf("placed %d exceeds fleet size %d", placed, wantVMs)
	}
	maxDeparted := testSpec().Waves * testSpec().DepartPerWave
	if departed > maxDeparted {
		t.Errorf("%d VMs unaccounted for (max %d departures possible)", departed, maxDeparted)
	}
	if created < placed {
		t.Errorf("created %d < placed %d", created, placed)
	}
}

// TestShardedDeferredHeartbeat is the cross-shard reincarnation of the
// nested-advance regression: a heartbeat tick that fires inside a
// toolstack operation (the host's clock advanced from within a create)
// must defer, not report mid-operation state — and the deferral must
// not starve the heartbeat loop into a false death declaration.
func TestShardedDeferredHeartbeat(t *testing.T) {
	pools := []HostPool{
		// xl creates take >100 virtual ms; with a 1 ms heartbeat the
		// tick is guaranteed to land mid-create.
		{Name: "xl", Mode: toolstack.ModeXL, Hosts: 1, VMs: 8, Image: guest.Daytime()},
	}
	sc, err := NewSharded(ShardedConfig{
		Machine:   testMachine,
		Workers:   2,
		Seed:      7,
		Heartbeat: time.Millisecond,
		DeadAfter: time.Minute,
	}, pools)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	rep, err := sc.RunChurn(ChurnSpec{Waves: 1, WavePeriod: time.Second, Drain: 2 * time.Minute})
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if rep.DeferredBeats == 0 {
		t.Error("no heartbeat deferred during nested toolstack operations")
	}
	if rep.HostsFailed != 0 || rep.Failovers != 0 {
		t.Errorf("deferred beats caused a false death: failed=%d failovers=%d",
			rep.HostsFailed, rep.Failovers)
	}
	if rep.Unplaced != 0 || rep.Pools[0].Placed != 8 {
		t.Errorf("placement incomplete: unplaced=%d placed=%d", rep.Unplaced, rep.Pools[0].Placed)
	}
}

// TestShardedChurnRace hammers the cross-shard paths — concurrent
// creates, migration streams, heartbeats and a failover — with a full
// worker pool. Its value is under `go test -race`: any unsynchronized
// access in the mailbox/lookahead handoff or a shard touching another
// shard's state trips the detector.
func TestShardedChurnRace(t *testing.T) {
	pools := []HostPool{
		{Name: "chaos", Mode: toolstack.ModeLightVM, Hosts: 8, VMs: 240, Image: guest.Daytime()},
		{Name: "xl", Mode: toolstack.ModeXL, Hosts: 4, VMs: 40, Image: guest.Daytime()},
	}
	sc, err := NewSharded(ShardedConfig{Machine: testMachine, Workers: 8, Seed: 3}, pools)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	rep, err := sc.RunChurn(ChurnSpec{
		Waves:          4,
		WavePeriod:     time.Second,
		MigratePerWave: 6,
		DepartPerWave:  2,
		FailAt:         []time.Duration{1500 * time.Millisecond, 2500 * time.Millisecond},
		Drain:          time.Minute,
	})
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if rep.Unplaced != 0 {
		t.Errorf("%d VMs still in flight at the end of the run", rep.Unplaced)
	}
	if rep.FsckViolated != 0 {
		t.Errorf("fsck found %d violations", rep.FsckViolated)
	}
	if rep.Engine.Messages == 0 {
		t.Error("no cross-shard messages — the race test exercised nothing")
	}
}

// chaosPool is a LightVM pool of hosts members and vms guests.
func chaosPool(hosts, vms int) []HostPool {
	return []HostPool{{Name: "chaos", Mode: toolstack.ModeLightVM, Hosts: hosts, VMs: vms, Image: guest.Daytime()}}
}

// checkSafe fails the test on any safety or convergence violation.
func checkSafe(t *testing.T, rep *ChurnReport) {
	t.Helper()
	if rep.DoubleStarts != 0 || rep.FsckViolated != 0 || rep.Unplaced != 0 {
		t.Fatalf("double-starts=%d fsck=%d unplaced=%d, want 0/0/0",
			rep.DoubleStarts, rep.FsckViolated, rep.Unplaced)
	}
	// A VM lost again before it recovers has one outage window.
	if rep.FailoverMS.Len() > rep.Failovers {
		t.Fatalf("%d outage windows for %d failovers", rep.FailoverMS.Len(), rep.Failovers)
	}
}

// checkViewMatchesHosts demands that every powered-on host runs exactly
// the VMs the controller maps to it.
func checkViewMatchesHosts(t *testing.T, sc *Sharded) {
	t.Helper()
	for g, a := range sc.agents {
		if a.dead {
			continue
		}
		want := 0
		for id, h := range sc.ctl.vmHost {
			if h == int32(g) && sc.ctl.vmState[id] == vmPlaced {
				want++
			}
		}
		if got := a.host.VMs(); got != want {
			t.Errorf("host %d runs %d VMs, controller places %d there", g, got, want)
		}
	}
}

func TestPlaceBalancesLoad(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 9}
	sc, rep := runSharded(t, cfg, chaosPool(3, 9), ChurnSpec{Waves: 1, WavePeriod: time.Second}, nil)
	checkSafe(t, rep)
	for g, a := range sc.agents {
		if n := a.host.VMs(); n != 3 {
			t.Errorf("host %d holds %d VMs, want 3", g, n)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine}
	if _, err := NewSharded(cfg, nil); err == nil {
		t.Error("a cluster with no pools was accepted")
	}
	if _, err := NewSharded(cfg, chaosPool(0, 4)); err == nil {
		t.Error("a pool with no hosts was accepted")
	}
	sc, err := NewSharded(cfg, chaosPool(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunChurn(ChurnSpec{}); err == nil {
		t.Error("a churn with no waves was accepted")
	}
}

// TestPlaceFallsBackWhenHostFull: a host that runs out of resources
// (here: every store-quota check on host 0 refuses) is marked full and
// placement falls back to the others.
func TestPlaceFallsBackWhenHostFull(t *testing.T) {
	pools := []HostPool{{Name: "xl", Mode: toolstack.ModeXL, Hosts: 2, VMs: 6, Image: guest.Daytime()}}
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 9}
	sc, rep := runSharded(t, cfg, pools, ChurnSpec{Waves: 1, WavePeriod: time.Second}, func(sc *Sharded) {
		a := sc.agents[0]
		a.host.Env.SetFaults(faults.New(a.shard.Clock(), 1, faults.Plan{Rate: 1, Kinds: []faults.Kind{faults.KindStoreQuota}}))
	})
	checkSafe(t, rep)
	if !sc.ctl.full[0] {
		t.Error("host 0 refused on quota but was not marked full")
	}
	if rep.Pools[0].CreateFailed == 0 {
		t.Error("no create failed on the full host")
	}
	if got := sc.agents[1].host.VMs(); got != 6 {
		t.Errorf("survivor holds %d VMs, want all 6", got)
	}
}

// TestTransientCreateFailureKeepsHostPlacing: a create that fails for
// any reason other than resource exhaustion (here: every XenStore
// transaction conflicts until t=1s) is re-placed, and the host that
// failed keeps taking placements.
func TestTransientCreateFailureKeepsHostPlacing(t *testing.T) {
	pools := []HostPool{{Name: "xl", Mode: toolstack.ModeXL, Hosts: 2, VMs: 8, Image: guest.Daytime()}}
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 9, Faults: faults.Plan{
		Rate:   1,
		Kinds:  []faults.Kind{faults.KindTxnConflict},
		Window: faults.Window{To: sim.Time(0).Add(time.Second)},
	}}
	sc, rep := runSharded(t, cfg, pools, ChurnSpec{Waves: 2, WavePeriod: 3 * time.Second}, nil)
	checkSafe(t, rep)
	if rep.Pools[0].CreateFailed == 0 {
		t.Fatal("no create failed: the transient fault never bit")
	}
	for g, a := range sc.agents {
		if sc.ctl.full[g] {
			t.Errorf("host %d marked full after a transient failure", g)
		}
		if a.host.VMs() == 0 {
			t.Errorf("host %d took no placements", g)
		}
	}
	if rep.Pools[0].Placed != 8 {
		t.Errorf("placed %d of 8", rep.Pools[0].Placed)
	}
}

// TestHandoverSaveFailureLeavesOneCopy: a save that fails after
// suspending the guest (as migrate.Save does when encoding or the
// store capture fails) must not leave the suspended copy behind while
// the controller re-places the VM.
func TestHandoverSaveFailureLeavesOneCopy(t *testing.T) {
	saveCheckpoint = func(e *toolstack.Env, vm *toolstack.VM) (*migrate.Checkpoint, time.Duration, error) {
		if err := e.HV.Suspend(vm.Dom.ID, "suspend"); err != nil {
			return nil, 0, err
		}
		return nil, 0, errors.New("injected save failure")
	}
	defer func() { saveCheckpoint = migrate.Save }()
	for _, mode := range []toolstack.Mode{toolstack.ModeXL, toolstack.ModeLightVM} {
		t.Run(mode.String(), func(t *testing.T) {
			pools := []HostPool{{Name: "p", Mode: mode, Hosts: 3, VMs: 12, Image: guest.Daytime()}}
			cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 9}
			sc, rep := runSharded(t, cfg, pools, ChurnSpec{Waves: 2, WavePeriod: 2 * time.Second, MigratePerWave: 3}, nil)
			checkSafe(t, rep)
			p := rep.Pools[0]
			if p.Migrations != 0 || p.MigrateFailed != 3 {
				t.Fatalf("migrations=%d failed=%d, want 0/3", p.Migrations, p.MigrateFailed)
			}
			if p.Placed != 12 {
				t.Fatalf("placed %d of 12", p.Placed)
			}
			checkViewMatchesHosts(t, sc)
		})
	}
}

// TestDoubleStartAuditTripsOnPlantedCopy proves the audit is live: a
// second copy of a placed VM, planted on another host, is counted.
func TestDoubleStartAuditTripsOnPlantedCopy(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 9}
	sc, rep := runSharded(t, cfg, chaosPool(2, 8), ChurnSpec{Waves: 1, WavePeriod: time.Second}, nil)
	checkSafe(t, rep)
	id := -1
	for v, h := range sc.ctl.vmHost {
		if h == 0 && sc.ctl.vmState[v] == vmPlaced {
			id = v
			break
		}
	}
	if id < 0 {
		t.Fatal("no VM placed on host 0")
	}
	other := sc.agents[1]
	if _, err := other.host.CreateVM(other.mode, other.vmName(uint32(id)), other.img); err != nil {
		t.Fatal(err)
	}
	if n := sc.doubleStarts(); n != 1 {
		t.Fatalf("audit counted %d double-starts after planting one", n)
	}
}

func TestHealthDetectsSilentHostAndFailsOver(t *testing.T) {
	for _, mode := range []toolstack.Mode{toolstack.ModeXL, toolstack.ModeLightVM} {
		t.Run(mode.String(), func(t *testing.T) {
			const dead = 600 * time.Millisecond
			pools := []HostPool{{Name: "p", Mode: mode, Hosts: 2, VMs: 8, Image: guest.Daytime()}}
			cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5, DeadAfter: dead}
			// Host 0 goes silent at t=1s for 2s, past DeadAfter.
			sc, rep := runSharded(t, cfg, pools, ChurnSpec{Waves: 2, WavePeriod: 4 * time.Second},
				func(sc *Sharded) { at(sc, 0, time.Second, func(a *hostAgent) { a.crash(2 * time.Second) }) })
			checkSafe(t, rep)
			if rep.Detected != 1 || rep.Failovers != 2 || rep.FalsePositives != 0 {
				t.Fatalf("detected=%d failovers=%d falsepos=%d, want 1/2/0",
					rep.Detected, rep.Failovers, rep.FalsePositives)
			}
			for _, w := range rep.FailoverMS.Values {
				if w < float64(dead/time.Millisecond) || w > 1600 {
					t.Errorf("unavailability window %.1f ms, want within [600, 1600]", w)
				}
			}
			// The host returned empty and took the second wave.
			if a := sc.agents[0]; a.inc != 1 || a.host.VMs() == 0 {
				t.Errorf("returned host: incarnation %d, %d VMs", a.inc, a.host.VMs())
			}
			checkViewMatchesHosts(t, sc)
		})
	}
}

// TestSlowHostFalsePositiveIsFenced: a host that is merely slow (its
// beats arrive 700ms stale) trips a 400ms DeadAfter. The fence lands
// on a live host — a false positive — which reboots empty, rejoins,
// and takes placements again; no VM ever runs twice.
func TestSlowHostFalsePositiveIsFenced(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5, DeadAfter: 400 * time.Millisecond}
	sc, rep := runSharded(t, cfg, chaosPool(2, 16), ChurnSpec{Waves: 2, WavePeriod: 3 * time.Second},
		func(sc *Sharded) {
			at(sc, 0, time.Second, func(a *hostAgent) {
				a.slowFactor, a.slowUntil = 8, a.shard.Clock().Now().Add(600*time.Millisecond)
			})
		})
	checkSafe(t, rep)
	if rep.FalsePositives != 1 || rep.Detected != 1 || rep.Failovers != 4 {
		t.Fatalf("falsepos=%d detected=%d failovers=%d, want 1/1/4",
			rep.FalsePositives, rep.Detected, rep.Failovers)
	}
	if a := sc.agents[0]; a.dead || a.inc != 1 {
		t.Fatalf("fenced host: dead=%v incarnation=%d, want rebooted once", a.dead, a.inc)
	}
	if n := sc.agents[0].host.VMs(); n != 8 {
		t.Errorf("rejoined host took %d of the second wave's VMs, want 8", n)
	}
	checkViewMatchesHosts(t, sc)
}

func TestPartitionRefusesMigrationAndFenceStillLands(t *testing.T) {
	cut := func(peer int, from, to time.Duration) func(a *hostAgent) {
		return func(a *hostAgent) { a.cutPeer, a.cutUntil = peer, sim.Time(0).Add(to) }
	}
	t.Run("host-host", func(t *testing.T) {
		cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5}
		spec := ChurnSpec{Waves: 2, WavePeriod: 2 * time.Second, MigratePerWave: 3}
		sc, rep := runSharded(t, cfg, chaosPool(2, 16), spec, func(sc *Sharded) {
			at(sc, 0, 0, cut(sc.agents[1].shard.ID(), 0, time.Minute))
			at(sc, 1, 0, cut(sc.agents[0].shard.ID(), 0, time.Minute))
		})
		checkSafe(t, rep)
		p := rep.Pools[0]
		if p.Migrations != 0 || p.MigrateFailed != 3 || rep.Detected != 0 {
			t.Fatalf("migrations=%d refused=%d detected=%d, want 0/3/0", p.Migrations, p.MigrateFailed, rep.Detected)
		}
		// Refused, not lost: the VMs kept running on their sources.
		if p.Created != 16 {
			t.Fatalf("%d creations for 16 VMs: a refused handover was re-placed", p.Created)
		}
		checkViewMatchesHosts(t, sc)
	})
	t.Run("controller", func(t *testing.T) {
		cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5, DeadAfter: 400 * time.Millisecond}
		spec := ChurnSpec{Waves: 2, WavePeriod: 3 * time.Second}
		sc, rep := runSharded(t, cfg, chaosPool(2, 16), spec, func(sc *Sharded) {
			at(sc, 0, time.Second, cut(0, time.Second, 4*time.Second))
		})
		checkSafe(t, rep)
		if rep.Detected != 1 || rep.Failovers != 4 || rep.FalsePositives != 0 {
			t.Fatalf("detected=%d failovers=%d falsepos=%d, want 1/4/0",
				rep.Detected, rep.Failovers, rep.FalsePositives)
		}
		// The cut dropped every beat, yet the fence power-cycled the host.
		if a := sc.agents[0]; a.inc != 1 {
			t.Fatalf("partitioned host incarnation %d: the fence did not land", a.inc)
		}
		checkViewMatchesHosts(t, sc)
	})
}

// TestFlapShorterThanDeadAfterCaughtByIncarnation: a host that crashes
// and reboots within DeadAfter never goes silent long enough to be
// declared dead; the new incarnation number in its first beat is what
// tells the controller its VMs are gone.
func TestFlapShorterThanDeadAfterCaughtByIncarnation(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5, DeadAfter: 2 * time.Second}
	sc, rep := runSharded(t, cfg, chaosPool(2, 8), ChurnSpec{Waves: 1, WavePeriod: 2 * time.Second},
		func(sc *Sharded) { at(sc, 0, time.Second, func(a *hostAgent) { a.crash(500 * time.Millisecond) }) })
	checkSafe(t, rep)
	if rep.Detected != 1 || rep.Failovers != 4 || rep.FalsePositives != 0 {
		t.Fatalf("detected=%d failovers=%d falsepos=%d, want 1/4/0",
			rep.Detected, rep.Failovers, rep.FalsePositives)
	}
	for _, w := range rep.FailoverMS.Values {
		if w >= 1000 {
			t.Errorf("unavailability %.1f ms: the flap was caught by silence, not incarnation", w)
		}
	}
	if sc.ctl.inc[0] != 1 {
		t.Errorf("controller holds incarnation %d for the flapped host, want 1", sc.ctl.inc[0])
	}
	checkViewMatchesHosts(t, sc)
}

// TestSaturationBackpressureAndDeferredFailover: a one-host pool loses
// its only member; the failover finds no room, parks the VMs, and
// places them once the host reboots and rejoins.
func TestSaturationBackpressureAndDeferredFailover(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5, DeadAfter: 600 * time.Millisecond}
	sc, rep := runSharded(t, cfg, chaosPool(1, 4), ChurnSpec{Waves: 1, WavePeriod: 2 * time.Second},
		func(sc *Sharded) { at(sc, 0, time.Second, func(a *hostAgent) { a.crash(1500 * time.Millisecond) }) })
	checkSafe(t, rep)
	if rep.Failovers != 4 || rep.Saturated < 4 {
		t.Fatalf("failovers=%d saturated=%d, want 4 and >=4", rep.Failovers, rep.Saturated)
	}
	if rep.Pools[0].Placed != 4 {
		t.Fatalf("placed %d of 4 after the host returned", rep.Pools[0].Placed)
	}
	checkViewMatchesHosts(t, sc)
}

// failedHostRun kills one of two hosts for good at t=1s, between two
// arrival waves with handover churn.
func failedHostRun(t *testing.T) (*Sharded, *ChurnReport, *hostAgent, *hostAgent) {
	t.Helper()
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5}
	spec := ChurnSpec{Waves: 2, WavePeriod: 3 * time.Second, MigratePerWave: 2, FailAt: []time.Duration{time.Second}}
	sc, rep := runSharded(t, cfg, chaosPool(2, 16), spec, nil)
	checkSafe(t, rep)
	dead, live := sc.agents[0], sc.agents[1]
	if !dead.dead {
		dead, live = live, dead
	}
	return sc, rep, dead, live
}

func TestFailedHostIsRejectedEverywhere(t *testing.T) {
	sc, rep, dead, live := failedHostRun(t)
	if rep.HostsFailed != 1 || !dead.dead || !dead.gone || sc.ctl.alive[dead.gidx] {
		t.Fatalf("failed host: hostsFailed=%d dead=%v gone=%v alive=%v",
			rep.HostsFailed, dead.dead, dead.gone, sc.ctl.alive[dead.gidx])
	}
	if n := live.host.VMs(); n != 16 {
		t.Fatalf("survivor runs %d VMs, want all 16", n)
	}
}

func TestFailoverReinstatesLostVMs(t *testing.T) {
	_, rep, _, live := failedHostRun(t)
	if rep.Failovers == 0 || rep.Pools[0].Placed != 16 {
		t.Fatalf("failovers=%d placed=%d", rep.Failovers, rep.Pools[0].Placed)
	}
	for id := uint32(0); id < 16; id++ {
		vm, err := live.host.Env.VM(live.vmName(id))
		if err != nil || !vm.Booted {
			t.Errorf("VM %d not running on the survivor: %v", id, err)
		}
	}
}

// TestMoveFollowsSubscriber: every completed handover leaves the VM
// running where the controller now places it, and nowhere else.
func TestMoveFollowsSubscriber(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5}
	// Handovers start with the second wave: the first wave's VMs are
	// still booting when it picks.
	spec := ChurnSpec{Waves: 3, WavePeriod: 2 * time.Second, MigratePerWave: 3}
	sc, rep := runSharded(t, cfg, chaosPool(3, 12), spec, nil)
	checkSafe(t, rep)
	if p := rep.Pools[0]; p.Migrations != 6 || p.MigrateMS.Len() != 6 {
		t.Fatalf("migrations=%d latencies=%d, want 6/6", p.Migrations, p.MigrateMS.Len())
	}
	checkViewMatchesHosts(t, sc)
}

// TestDestroyUpdatesPlacement: departed VMs are gone from their hosts
// and from the placed count.
func TestDestroyUpdatesPlacement(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 5}
	spec := ChurnSpec{Waves: 3, WavePeriod: 2 * time.Second, DepartPerWave: 3}
	sc, rep := runSharded(t, cfg, chaosPool(2, 12), spec, nil)
	checkSafe(t, rep)
	if placed := rep.Pools[0].Placed; placed != 6 {
		t.Fatalf("placed %d after 6 departures of 12, want 6", placed)
	}
	checkViewMatchesHosts(t, sc)
}

// TestRolledBackHandoverToFailedDestinationIsReaped replays a seed on
// which an xl handover's stream dropped and rolled back onto the
// source while its destination crashed: the failover re-placed the VM,
// so the rollback's refusal arrived stale and the source's restored
// copy must be reaped, not left running next to the re-placement.
func TestRolledBackHandoverToFailedDestinationIsReaped(t *testing.T) {
	cfg := ShardedConfig{Machine: testMachine, Workers: 2, Seed: 39599, Faults: faults.Plan{
		Rate: 0.2,
		Kinds: []faults.Kind{faults.KindTxnConflict, faults.KindStoreStall, faults.KindHandshakeStall,
			faults.KindMigrationDrop, faults.KindDaemonCrash, faults.KindHostFailure},
	}}
	pools := []HostPool{{Name: "xl", Mode: toolstack.ModeXL, Hosts: 2, VMs: 40, Image: guest.Daytime()}}
	spec := ChurnSpec{Waves: 4, WavePeriod: 2 * time.Second, MigratePerWave: 4, Drain: time.Minute}
	sc, rep := runSharded(t, cfg, pools, spec, nil)
	checkSafe(t, rep)
	if rep.Fenced == 0 {
		t.Fatal("no stale refusal fenced: the replay no longer reaches the rollback race")
	}
	checkViewMatchesHosts(t, sc)
}

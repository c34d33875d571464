package faults

import (
	"testing"
	"time"

	"lightvm/internal/sim"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	for _, k := range AllKinds() {
		if in.Fire(k) {
			t.Fatalf("nil injector fired %v", k)
		}
	}
	if in.Jitter(KindTxnConflict, time.Second) != 0 {
		t.Fatal("nil injector produced jitter")
	}
	if in.Fraction(KindMigrationDrop) != 0 {
		t.Fatal("nil injector produced a fraction")
	}
	if in.TotalInjected() != 0 || in.Injected(KindStoreStall) != 0 {
		t.Fatal("nil injector counted injections")
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	in := New(sim.NewClock(), 7, Plan{Rate: 0})
	for i := 0; i < 10000; i++ {
		if in.Fire(KindTxnConflict) {
			t.Fatal("rate-0 plan fired")
		}
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	schedule := func(seed uint64) []bool {
		in := New(sim.NewClock(), seed, Plan{Rate: 0.25})
		out := make([]bool, 0, 4000)
		for i := 0; i < 1000; i++ {
			for _, k := range AllKinds() {
				out = append(out, in.Fire(k))
			}
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestStreamsAreIndependentAcrossSites(t *testing.T) {
	// Interleaving traffic at one site must not change another site's
	// decision sequence — that is what keeps multi-site experiments
	// reproducible when per-site op counts shift.
	draws := func(noise int) []bool {
		in := New(sim.NewClock(), 9, Plan{Rate: 0.5})
		out := make([]bool, 0, 200)
		for i := 0; i < 200; i++ {
			for j := 0; j < noise; j++ {
				in.Fire(KindStoreStall) // unrelated site traffic
			}
			out = append(out, in.Fire(KindMigrationDrop))
		}
		return out
	}
	a, b := draws(0), draws(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cross-site traffic perturbed decision %d", i)
		}
	}
}

func TestRateConverges(t *testing.T) {
	in := New(sim.NewClock(), 11, Plan{Rate: 0.3})
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		if in.Fire(KindHandshakeStall) {
			fired++
		}
	}
	got := float64(fired) / n
	if got < 0.27 || got > 0.33 {
		t.Fatalf("empirical rate %.3f far from plan rate 0.3", got)
	}
	if in.Injected(KindHandshakeStall) != uint64(fired) {
		t.Fatal("injected counter disagrees with observed fires")
	}
	if in.Opportunities(KindHandshakeStall) != n {
		t.Fatal("opportunity counter wrong")
	}
}

func TestWindowGatesInjection(t *testing.T) {
	clock := sim.NewClock()
	in := New(clock, 3, Plan{
		Rate:   1.0,
		Window: Window{From: sim.Time(0).Add(time.Second), To: sim.Time(0).Add(2 * time.Second)},
	})
	if in.Fire(KindDaemonCrash) {
		t.Fatal("fired before window opened")
	}
	clock.Sleep(time.Second)
	if !in.Fire(KindDaemonCrash) {
		t.Fatal("rate-1 plan silent inside window")
	}
	clock.Sleep(5 * time.Second)
	if in.Fire(KindDaemonCrash) {
		t.Fatal("fired after window closed")
	}
}

func TestKindMaskRestrictsFiring(t *testing.T) {
	in := New(sim.NewClock(), 5, Plan{Rate: 1.0, Kinds: []Kind{KindMigrationDrop}})
	if in.Fire(KindTxnConflict) || in.Fire(KindHostFailure) {
		t.Fatal("masked-out kind fired")
	}
	if !in.Fire(KindMigrationDrop) {
		t.Fatal("selected kind silent at rate 1")
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	a := New(sim.NewClock(), 17, Plan{Rate: 1})
	b := New(sim.NewClock(), 17, Plan{Rate: 1})
	for i := 0; i < 1000; i++ {
		ja := a.Jitter(KindTxnConflict, time.Millisecond)
		jb := b.Jitter(KindTxnConflict, time.Millisecond)
		if ja != jb {
			t.Fatalf("jitter diverged at draw %d", i)
		}
		if ja < 0 || ja >= time.Millisecond {
			t.Fatalf("jitter %v out of [0, 1ms)", ja)
		}
	}
}

func TestToolstackCrashOptInOnly(t *testing.T) {
	// Empty Kinds must NOT include the crash kind: existing rate
	// sweeps rely on Plan{Rate: r} leaving lifecycle ops intact.
	in := New(sim.NewClock(), 3, Plan{Rate: 1})
	for i := 0; i < 100; i++ {
		if in.Fire(KindToolstackCrash) {
			t.Fatal("toolstack-crash fired under an empty-Kinds plan")
		}
	}
	if in.Opportunities(KindToolstackCrash) != 0 {
		t.Fatal("masked crash kind consumed stream positions")
	}
	if in.Enabled(KindToolstackCrash) {
		t.Fatal("Enabled reported a masked kind as live")
	}
	// Named explicitly, it fires like any other kind.
	in = New(sim.NewClock(), 3, Plan{Rate: 1, Kinds: []Kind{KindToolstackCrash}})
	if !in.Enabled(KindToolstackCrash) {
		t.Fatal("Enabled false for an explicitly planned kind")
	}
	if !in.Fire(KindToolstackCrash) {
		t.Fatal("rate-1 explicit plan did not fire")
	}
}

func TestFireSiteCountersAndSchedule(t *testing.T) {
	plan := Plan{Rate: 0.5, Kinds: []Kind{KindToolstackCrash}}
	// FireSite must consume the same stream as Fire: interleaving
	// labels cannot change the schedule.
	ref := New(sim.NewClock(), 11, plan)
	var want []bool
	for i := 0; i < 400; i++ {
		want = append(want, ref.Fire(KindToolstackCrash))
	}
	in := New(sim.NewClock(), 11, plan)
	sites := []string{"xl.create.hv", "xl.destroy.devices", "pool.finalize"}
	var got []bool
	for i := 0; i < 400; i++ {
		got = append(got, in.FireSite(KindToolstackCrash, sites[i%len(sites)]))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("decision %d: FireSite=%v Fire=%v", i, got[i], want[i])
		}
	}
	stats := in.SiteStats()
	if len(stats) != len(sites) {
		t.Fatalf("SiteStats len = %d, want %d", len(stats), len(sites))
	}
	var opp, inj uint64
	for i, st := range stats {
		if i > 0 && stats[i-1].Site >= st.Site {
			t.Fatalf("SiteStats not sorted: %q before %q", stats[i-1].Site, st.Site)
		}
		if st.Kind != "toolstack-crash" {
			t.Fatalf("site %q kind = %q", st.Site, st.Kind)
		}
		opp += st.Opportunities
		inj += st.Injected
	}
	if opp != 400 {
		t.Fatalf("total site opportunities = %d, want 400", opp)
	}
	if inj != in.Injected(KindToolstackCrash) {
		t.Fatalf("site injections %d != kind injections %d", inj, in.Injected(KindToolstackCrash))
	}
	if inj == 0 || inj == 400 {
		t.Fatalf("degenerate injection count %d at rate 0.5", inj)
	}
}

func TestFireSiteDisabledAllocatesNothing(t *testing.T) {
	in := New(sim.NewClock(), 5, Plan{Rate: 1}) // crash kind masked
	for i := 0; i < 10; i++ {
		if in.FireSite(KindToolstackCrash, "xl.create.hv") {
			t.Fatal("masked FireSite fired")
		}
	}
	if in.SiteStats() != nil {
		t.Fatal("disabled sites recorded stats")
	}
	var nilIn *Injector
	if nilIn.FireSite(KindToolstackCrash, "x") || nilIn.SiteStats() != nil || nilIn.Enabled(KindToolstackCrash) {
		t.Fatal("nil injector not inert for site API")
	}
}

func TestWindowEdgeCases(t *testing.T) {
	var zero Window
	for _, at := range []sim.Time{0, 1, sim.Time(time.Hour)} {
		if !zero.Contains(at) {
			t.Fatalf("zero window should always be active (t=%v)", at)
		}
	}
	// Zero-width window: active at exactly one instant.
	at := sim.Time(500 * time.Millisecond)
	w := Window{From: at, To: at}
	if !w.Contains(at) {
		t.Fatal("zero-width window rejects its own instant")
	}
	if w.Contains(at-1) || w.Contains(at+1) {
		t.Fatal("zero-width window leaks outside its instant")
	}
	// To == 0 is open-ended, not empty.
	open := Window{From: at}
	if open.Contains(at-1) || !open.Contains(at) || !open.Contains(sim.Time(time.Hour)) {
		t.Fatal("open-ended window miscomputed")
	}
}

func TestWindowEntirelyPastNeverFires(t *testing.T) {
	clk := sim.NewClock()
	w := Window{From: sim.Time(time.Millisecond), To: sim.Time(2 * time.Millisecond)}
	in := New(clk, 9, Plan{Rate: 1, Window: w})
	clk.Sleep(time.Second) // now well past the window
	for i := 0; i < 1000; i++ {
		for _, k := range AllKinds() {
			if in.Fire(k) {
				t.Fatalf("rate-1 plan fired outside its window (%v)", k)
			}
		}
	}
	if in.TotalInjected() != 0 {
		t.Fatalf("injected count %d outside window", in.TotalInjected())
	}
	// Opportunities are still consumed: the stream position does not
	// depend on the window, so schedules stay comparable across windows.
	if in.Opportunities(KindHostFlap) != 1000 {
		t.Fatalf("opportunities = %d, want 1000", in.Opportunities(KindHostFlap))
	}
}

func TestZeroWidthWindowFiresOnlyAtInstant(t *testing.T) {
	clk := sim.NewClock()
	at := sim.Time(time.Second)
	in := New(clk, 11, Plan{Rate: 1, Window: Window{From: at, To: at}})
	if in.Fire(KindHostSlow) {
		t.Fatal("fired before the window instant")
	}
	clk.Sleep(time.Second)
	if !in.Fire(KindHostSlow) {
		t.Fatal("rate-1 plan must fire at the window instant")
	}
	clk.Sleep(1)
	if in.Fire(KindHostSlow) {
		t.Fatal("fired after the window instant")
	}
}

func TestGrayKindNamesAndDefaultMask(t *testing.T) {
	want := map[Kind]string{
		KindHostSlow:  "host-slow",
		KindPartition: "partition",
		KindHostFlap:  "host-flap",
	}
	for k, name := range want {
		if k.String() != name {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), name)
		}
	}
	// Gray kinds ride the default mask (safe: only cluster members'
	// heartbeats consult them), while toolstack crashes still require
	// naming.
	in := New(sim.NewClock(), 3, Plan{Rate: 0.5})
	for k := range want {
		if !in.Enabled(k) {
			t.Fatalf("%v not enabled by the empty-Kinds mask", k)
		}
	}
	if in.Enabled(KindToolstackCrash) {
		t.Fatal("toolstack crash enabled without being named")
	}
}

func TestSiteAllowedRestrictsGrayKinds(t *testing.T) {
	gray := []Kind{KindHostSlow, KindPartition, KindHostFlap}
	in := New(sim.NewClock(), 5, Plan{Rate: 1, Kinds: gray, Sites: []string{"cell-0"}})
	for _, k := range gray {
		if !in.FireSite(k, "cell-0") {
			t.Fatalf("rate-1 allowed site did not fire (%v)", k)
		}
		if in.FireSite(k, "cell-1") {
			t.Fatalf("site outside Plan.Sites fired (%v)", k)
		}
	}
	// Excluded sites count opportunities but consume no stream
	// position: the allowed site's schedule is unperturbed.
	ref := New(sim.NewClock(), 5, Plan{Rate: 1, Kinds: gray})
	ref.Fire(KindHostFlap) // consume position 0, matching the allowed fire above
	a, b := in.Fire(KindHostFlap), ref.Fire(KindHostFlap)
	if a != b {
		t.Fatal("excluded site perturbed the decision stream")
	}
	for _, st := range in.SiteStats() {
		switch st.Site {
		case "cell-0":
			if st.Injected == 0 {
				t.Fatal("allowed site recorded no injections")
			}
		case "cell-1":
			if st.Opportunities == 0 || st.Injected != 0 {
				t.Fatalf("excluded site stats: %+v", st)
			}
		}
	}
}

// TestKindEnumPinned pins every kind's numeric position and name: the
// enum is append-only because decision streams are keyed by value, so
// a reorder would silently shift every checked-in golden schedule.
func TestKindEnumPinned(t *testing.T) {
	want := []struct {
		k    Kind
		name string
	}{
		{KindTxnConflict, "txn-conflict"},
		{KindStoreStall, "store-stall"},
		{KindHandshakeStall, "handshake-stall"},
		{KindMigrationDrop, "migration-drop"},
		{KindDaemonCrash, "daemon-crash"},
		{KindHostFailure, "host-failure"},
		{KindToolstackCrash, "toolstack-crash"},
		{KindHostSlow, "host-slow"},
		{KindPartition, "partition"},
		{KindHostFlap, "host-flap"},
		{KindMemPressure, "mem-pressure"},
		{KindStoreQuota, "store-quota"},
		{KindRetryStorm, "retry-storm"},
	}
	if int(numKinds) != len(want) {
		t.Fatalf("numKinds = %d, want %d — append new kinds to this table", int(numKinds), len(want))
	}
	for i, w := range want {
		if int(w.k) != i {
			t.Fatalf("%s has value %d, want %d — the enum is append-only", w.name, int(w.k), i)
		}
		if w.k.String() != w.name {
			t.Fatalf("%d.String() = %q, want %q", i, w.k.String(), w.name)
		}
	}
}

// TestOverloadKindsOptInOnly: the resource-exhaustion kinds change
// workload outcomes (failed creations, shed requests, amplified load),
// so like KindToolstackCrash they must not ride the empty-Kinds mask —
// that is what keeps every pre-existing figure's schedule and golden
// byte-identical.
func TestOverloadKindsOptInOnly(t *testing.T) {
	newKinds := []Kind{KindMemPressure, KindStoreQuota, KindRetryStorm}
	in := New(sim.NewClock(), 3, Plan{Rate: 1})
	for _, k := range newKinds {
		if in.Enabled(k) {
			t.Fatalf("%v enabled by an empty-Kinds plan", k)
		}
		for i := 0; i < 50; i++ {
			if in.Fire(k) {
				t.Fatalf("%v fired under an empty-Kinds plan", k)
			}
		}
		if in.Opportunities(k) != 0 {
			t.Fatalf("masked %v consumed stream positions", k)
		}
	}
	// Named explicitly, each fires like any other kind, and its stream
	// is independent of the legacy kinds'.
	in = New(sim.NewClock(), 3, Plan{Rate: 1, Kinds: newKinds})
	for _, k := range newKinds {
		if !in.Enabled(k) || !in.Fire(k) {
			t.Fatalf("rate-1 explicit plan did not fire %v", k)
		}
	}
}

// TestAppendedKindsDoNotShiftLegacyStreams: drawing from the new
// kinds' streams must leave every legacy kind's decision sequence
// byte-identical — each kind owns its own splitmix stream, so the
// append is invisible to existing consumers.
func TestAppendedKindsDoNotShiftLegacyStreams(t *testing.T) {
	legacy := []Kind{KindTxnConflict, KindStoreStall, KindDaemonCrash, KindHostFlap}
	ref := New(sim.NewClock(), 17, Plan{Rate: 0.5})
	var want [][]bool
	for _, k := range legacy {
		var seq []bool
		for i := 0; i < 200; i++ {
			seq = append(seq, ref.Fire(k))
		}
		want = append(want, seq)
	}
	// Interleave heavy traffic on the new kinds with the legacy draws.
	all := append(append([]Kind{}, legacy...), KindMemPressure, KindStoreQuota, KindRetryStorm)
	in := New(sim.NewClock(), 17, Plan{Rate: 0.5, Kinds: all})
	for i := 0; i < 200; i++ {
		in.Fire(KindRetryStorm)
		in.Jitter(KindRetryStorm, sim.Duration(1e9))
		for j, k := range legacy {
			if got := in.Fire(k); got != want[j][i] {
				t.Fatalf("%v decision %d shifted after appending new kinds", k, i)
			}
		}
		in.Fire(KindMemPressure)
		in.Fraction(KindStoreQuota)
	}
}

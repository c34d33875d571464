package sched

import (
	"math"
	"testing"
	"time"

	"lightvm/internal/sim"
)

func TestGuestCores(t *testing.T) {
	got := Xeon4.GuestCores()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Xeon4 guest cores = %v", got)
	}
	if n := len(Amd64.GuestCores()); n != 60 {
		t.Fatalf("Amd64 guest cores = %d, want 60", n)
	}
}

func TestPlaceRoundRobin(t *testing.T) {
	s := New(Xeon4)
	want := []int{1, 2, 3, 1, 2, 3, 1}
	for i, w := range want {
		if c := s.Place(); c != w {
			t.Fatalf("Place #%d = %d, want %d", i, c, w)
		}
	}
}

func TestDilationGrowsWithIdleGuests(t *testing.T) {
	s := New(Xeon4)
	if d := s.Dilation(1); d != 1 {
		t.Fatalf("empty core dilation = %v", d)
	}
	for i := 0; i < 300; i++ {
		s.AddGuest(1, 50, 55*time.Microsecond, 0)
	}
	d := s.Dilation(1)
	if d <= 1.5 {
		t.Fatalf("300 idle Tinyx-like guests dilate only %.2f×", d)
	}
	// Unikernel-like guests (no wakeups) add nothing.
	for i := 0; i < 300; i++ {
		s.AddGuest(2, 0, 0, 0)
	}
	if s.Dilation(2) != 1 {
		t.Fatalf("idle unikernels dilated core: %v", s.Dilation(2))
	}
}

func TestRemoveGuestRestoresDilation(t *testing.T) {
	s := New(Xeon4)
	s.AddGuest(1, 100, time.Millisecond, 0.01)
	s.RemoveGuest(1, 100, time.Millisecond, 0.01)
	if d := s.Dilation(1); math.Abs(d-1) > 1e-9 {
		t.Fatalf("dilation after remove = %v", d)
	}
	if s.Guests(1) != 0 {
		t.Fatalf("guest count = %d", s.Guests(1))
	}
}

func TestRunWorkDilated(t *testing.T) {
	s := New(Xeon4)
	clock := sim.NewClock()
	base := s.RunWork(clock, 1, 100*time.Millisecond)
	if base != 100*time.Millisecond {
		t.Fatalf("undilated work took %v", base)
	}
	for i := 0; i < 500; i++ {
		s.AddGuest(1, 50, 55*time.Microsecond, 0)
	}
	dilated := s.RunWork(clock, 1, 100*time.Millisecond)
	if dilated <= base {
		t.Fatalf("dilated run (%v) not slower than base (%v)", dilated, base)
	}
}

func TestUtilizationScalesAndCaps(t *testing.T) {
	s := New(Xeon4)
	u0 := s.Utilization()
	for i := 0; i < 1000; i++ {
		s.AddGuest(s.Place(), 0, 0, 0.001) // Debian-like duty
	}
	u1 := s.Utilization()
	if u1 <= u0 {
		t.Fatal("utilization did not grow with guests")
	}
	// 1000 × 0.1% of a core on a 4-core box ≈ 25%.
	if u1 < 0.20 || u1 > 0.35 {
		t.Fatalf("1000 Debian-like guests: utilization = %.3f, want ≈0.25", u1)
	}
	for i := 0; i < 100000; i++ {
		s.AddGuest(1, 0, 0, 0.01)
	}
	if s.Utilization() > 1 {
		t.Fatal("utilization exceeded 100%")
	}
}

func TestPSSingleJob(t *testing.T) {
	clock := sim.NewClock()
	ps := NewPS(clock)
	var finished sim.Time
	ps.Submit(0, 800*time.Millisecond, func(at sim.Time) { finished = at })
	end := ps.Drain()
	if want := sim.Time(800 * time.Millisecond); finished != want || end != want {
		t.Fatalf("single job finished at %v (drain %v), want %v", finished, end, want)
	}
}

func TestPSTwoJobsShareCore(t *testing.T) {
	clock := sim.NewClock()
	ps := NewPS(clock)
	var f1, f2 sim.Time
	ps.Submit(0, 100*time.Millisecond, func(at sim.Time) { f1 = at })
	ps.Submit(0, 100*time.Millisecond, func(at sim.Time) { f2 = at })
	ps.Drain()
	// Two equal jobs sharing one core both finish at 200ms.
	if f1 != sim.Time(200*time.Millisecond) || f2 != f1 {
		t.Fatalf("shared jobs finished at %v, %v; want both 200ms", f1, f2)
	}
}

func TestPSUnequalJobs(t *testing.T) {
	clock := sim.NewClock()
	ps := NewPS(clock)
	var fShort, fLong sim.Time
	ps.Submit(0, 50*time.Millisecond, func(at sim.Time) { fShort = at })
	ps.Submit(0, 150*time.Millisecond, func(at sim.Time) { fLong = at })
	ps.Drain()
	// Short job: shares until 100ms (50ms each done), finishes at 100ms.
	// Long job: 100ms remaining at that point, alone → finishes at 200ms.
	if fShort != sim.Time(100*time.Millisecond) {
		t.Fatalf("short job at %v, want 100ms", fShort)
	}
	if fLong != sim.Time(200*time.Millisecond) {
		t.Fatalf("long job at %v, want 200ms", fLong)
	}
}

func TestPSSeparateCoresIndependent(t *testing.T) {
	clock := sim.NewClock()
	ps := NewPS(clock)
	var f1, f2 sim.Time
	ps.Submit(0, 100*time.Millisecond, func(at sim.Time) { f1 = at })
	ps.Submit(1, 100*time.Millisecond, func(at sim.Time) { f2 = at })
	ps.Drain()
	if f1 != sim.Time(100*time.Millisecond) || f2 != f1 {
		t.Fatalf("independent cores interfered: %v, %v", f1, f2)
	}
}

func TestPSLateArrival(t *testing.T) {
	clock := sim.NewClock()
	ps := NewPS(clock)
	var f1, f2 sim.Time
	ps.Submit(0, 100*time.Millisecond, func(at sim.Time) { f1 = at })
	clock.Sleep(50 * time.Millisecond) // job1 has 50ms left
	ps.Submit(0, 100*time.Millisecond, func(at sim.Time) { f2 = at })
	ps.Drain()
	// From t=50: both share. Job1 needs 50 more → finishes at 150.
	// Job2 then has 50 left, alone → finishes at 200.
	if f1 != sim.Time(150*time.Millisecond) {
		t.Fatalf("job1 at %v, want 150ms", f1)
	}
	if f2 != sim.Time(200*time.Millisecond) {
		t.Fatalf("job2 at %v, want 200ms", f2)
	}
}

func TestPSActiveCounts(t *testing.T) {
	clock := sim.NewClock()
	ps := NewPS(clock)
	for i := 0; i < 5; i++ {
		ps.Submit(i%2, time.Second, nil)
	}
	if ps.TotalActive() != 5 {
		t.Fatalf("TotalActive = %d", ps.TotalActive())
	}
	if ps.Active(0) != 3 || ps.Active(1) != 2 {
		t.Fatalf("Active = %d,%d", ps.Active(0), ps.Active(1))
	}
	ps.Drain()
	if ps.TotalActive() != 0 {
		t.Fatalf("jobs survived drain: %d", ps.TotalActive())
	}
}

func TestPSCompletionsFireViaTimers(t *testing.T) {
	// Completions must fire from clock advancement alone (no polling):
	// this is what lets open-loop experiments observe job completions.
	clock := sim.NewClock()
	ps := NewPS(clock)
	done := false
	ps.Submit(0, 10*time.Millisecond, func(sim.Time) { done = true })
	clock.Sleep(9 * time.Millisecond)
	if done {
		t.Fatal("completion fired early")
	}
	clock.Sleep(2 * time.Millisecond)
	if !done {
		t.Fatal("completion did not fire from timer")
	}
}

func TestPSConservation(t *testing.T) {
	// Work conservation: total completion time of n equal jobs on one
	// core equals n × work regardless of arrival pattern.
	clock := sim.NewClock()
	ps := NewPS(clock)
	const n = 10
	work := 20 * time.Millisecond
	var last sim.Time
	for i := 0; i < n; i++ {
		ps.Submit(0, work, func(at sim.Time) {
			if at > last {
				last = at
			}
		})
		clock.Sleep(time.Millisecond)
	}
	ps.Drain()
	want := sim.Time(n * work)
	diff := last - want
	if diff < 0 {
		diff = -diff
	}
	// Integer nanosecond arithmetic loses <1µs over a run like this.
	if diff > sim.Time(time.Microsecond) {
		t.Fatalf("makespan %v, want %v (±1µs)", last, want)
	}
}

// Place hands out GuestCores round-robin on every testbed, without
// building the core list.
func TestPlaceMatchesGuestCores(t *testing.T) {
	for _, m := range []Machine{Xeon4, Amd64, Xeon14, Xeon4Ckpt} {
		s := New(m)
		cores := m.GuestCores()
		for i := 0; i < 3*len(cores)+1; i++ {
			if got, want := s.Place(), cores[i%len(cores)]; got != want {
				t.Fatalf("%s: Place #%d = %d, want %d", m.Name, i, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { s.Place() }); n != 0 {
			t.Fatalf("%s: Place allocates %.1f times per call", m.Name, n)
		}
	}
}

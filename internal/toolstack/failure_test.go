package toolstack

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"lightvm/internal/guest"
	"lightvm/internal/mm"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
)

// tinyEnv returns an environment on a host with very little memory, so
// allocations fail quickly (failure injection).
func tinyEnv() *Env {
	return NewEnv(sim.NewClock(), sched.Machine{Name: "tiny", Cores: 4, Dom0Cores: 1, MemoryGB: 1})
}

func TestCreateOOMRollsBackCleanly(t *testing.T) {
	for _, mode := range []Mode{ModeXL, ModeChaosXS, ModeChaosNoXS} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e := tinyEnv()
			drv := e.ForMode(mode)
			// Debian needs 111MB; a 1GB host (minus Dom0's 512MB and
			// the base overheads) fits only a few.
			var firstErr error
			created := 0
			for i := 0; i < 64; i++ {
				_, err := drv.Create(fmt.Sprintf("g%d", i), guest.DebianMinimal())
				if err != nil {
					firstErr = err
					break
				}
				created++
			}
			if firstErr == nil {
				t.Fatal("never hit OOM on a 1GB host")
			}
			if !errors.Is(firstErr, mm.ErrOutOfMemory) {
				t.Fatalf("unexpected error type: %v", firstErr)
			}
			// The failed creation must leave no trace: VM count and
			// domain count match the successes exactly.
			if e.VMs() != created {
				t.Fatalf("VMs=%d, created=%d — failed create leaked a VM", e.VMs(), created)
			}
			if e.HV.NumDomains() != created {
				t.Fatalf("domains=%d, created=%d — failed create leaked a domain", e.HV.NumDomains(), created)
			}
			// The failed name is reusable after freeing memory.
			failedName := fmt.Sprintf("g%d", created)
			victim, err := e.VM("g0")
			if err != nil {
				t.Fatal(err)
			}
			if err := drv.Destroy(victim); err != nil {
				t.Fatal(err)
			}
			if _, err := drv.Create(failedName, guest.Daytime()); err != nil {
				t.Fatalf("name %q unusable after failed create: %v", failedName, err)
			}
		})
	}
}

func TestSplitCreateOOMDuringPrepare(t *testing.T) {
	e := tinyEnv()
	drv := e.ForMode(ModeLightVM)
	// Fill the host, then force a pool miss + inline prepare failure.
	created := 0
	for i := 0; i < 64; i++ {
		if _, err := drv.Create(fmt.Sprintf("f%d", i), guest.DebianMinimal()); err != nil {
			break
		}
		created++
	}
	_, err := drv.Create("doomed", guest.DebianMinimal())
	if err == nil {
		t.Skip("host unexpectedly had room")
	}
	if e.VMs() != created || e.HV.NumDomains() != created {
		t.Fatalf("prepare failure leaked state: vms=%d doms=%d created=%d",
			e.VMs(), e.HV.NumDomains(), created)
	}
}

func TestReplenishSurfacesOOM(t *testing.T) {
	e := tinyEnv()
	e.Pool.SetTarget(64) // 64 Debian shells can never fit in 1GB
	f := FlavorFor(guest.DebianMinimal(), false)
	e.Pool.Register(f)
	if err := e.Pool.Replenish(); !errors.Is(err, mm.ErrOutOfMemory) {
		t.Fatalf("replenish on full host: %v", err)
	}
}

func TestDestroyedVMNameReusable(t *testing.T) {
	e := NewEnv(sim.NewClock(), sched.Xeon4)
	drv := e.ForMode(ModeChaosXS)
	for i := 0; i < 3; i++ {
		vm, err := drv.Create("recycled", guest.Daytime())
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := drv.Destroy(vm); err != nil {
			t.Fatalf("round %d destroy: %v", i, err)
		}
	}
}

func TestXLDestroyCleansUniqueName(t *testing.T) {
	e := NewEnv(sim.NewClock(), sched.Xeon4)
	drv := e.ForMode(ModeXL)
	vm, err := drv.Create("unique-one", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Destroy(vm); err != nil {
		t.Fatal(err)
	}
	// Same name must pass the store's uniqueness scan again.
	if _, err := drv.Create("unique-one", guest.Daytime()); err != nil {
		t.Fatalf("name not released from the store: %v", err)
	}
}

// Property: any interleaving of creates and destroys keeps the
// environment's bookkeeping consistent, and destroying everything
// returns host memory to its baseline.
func TestCreateDestroyInvariantsQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		e := NewEnv(sim.NewClock(), sched.Machine{Name: "q", Cores: 4, Dom0Cores: 1, MemoryGB: 16})
		drv := e.ForMode(ModeChaosNoXS)
		base := e.HV.UsedMemBytes()
		var live []*VM
		id := 0
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				id++
				img := guest.Daytime()
				if op%5 == 0 {
					img = guest.Minipython()
				}
				vm, err := drv.Create(fmt.Sprintf("q%d", id), img)
				if err != nil {
					return false
				}
				live = append(live, vm)
			} else {
				i := int(op/3) % len(live)
				if err := drv.Destroy(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if e.VMs() != len(live) || e.HV.NumDomains() != len(live) {
				return false
			}
		}
		for _, vm := range live {
			if err := drv.Destroy(vm); err != nil {
				return false
			}
		}
		return e.VMs() == 0 && e.HV.NumDomains() == 0 && e.HV.UsedMemBytes() == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same op sequence at the same seed produces identical
// virtual-time outcomes (determinism end to end).
func TestDeterminismQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		run := func() (sim.Time, uint64, int) {
			e := NewEnv(sim.NewClock(), sched.Xeon4)
			drv := e.ForMode(ModeChaosXS)
			id := 0
			var live []*VM
			for _, op := range ops {
				if op%2 == 0 || len(live) == 0 {
					id++
					vm, err := drv.Create(fmt.Sprintf("d%d", id), guest.Daytime())
					if err != nil {
						return 0, 0, -1
					}
					live = append(live, vm)
				} else {
					vm := live[len(live)-1]
					live = live[:len(live)-1]
					if err := drv.Destroy(vm); err != nil {
						return 0, 0, -1
					}
				}
			}
			return e.Clock.Now(), e.HV.UsedMemBytes(), e.Store.NumNodes()
		}
		t1, m1, n1 := run()
		t2, m2, n2 := run()
		return t1 == t2 && m1 == m2 && n1 == n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyPausedVMDoesNotCorruptScheduler(t *testing.T) {
	// Regression: destroying a paused guest must not remove its idle
	// load twice (which used to drive the per-core guest count
	// negative and panic the scheduler).
	e := NewEnv(sim.NewClock(), sched.Xeon4)
	drv := e.ForMode(ModeChaosNoXS)
	a, err := drv.Create("a", guest.TinyxNoop())
	if err != nil {
		t.Fatal(err)
	}
	b, err := drv.Create("b", guest.TinyxNoop())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PauseVM(a); err != nil {
		t.Fatal(err)
	}
	if err := e.PauseVM(a); err == nil {
		t.Fatal("double pause accepted")
	}
	if err := drv.Destroy(a); err != nil {
		t.Fatal(err)
	}
	// The scheduler still works for the remaining guest.
	if err := e.PauseVM(b); err != nil {
		t.Fatal(err)
	}
	if err := e.UnpauseVM(b); err != nil {
		t.Fatal(err)
	}
	if err := e.UnpauseVM(b); err == nil {
		t.Fatal("double unpause accepted")
	}
	if err := drv.Destroy(b); err != nil {
		t.Fatal(err)
	}
	if e.Sched.Guests(b.Core) != 0 && e.Sched.Guests(a.Core) != 0 {
		t.Fatal("scheduler guest counts not clean")
	}
}

func TestDestroyRemovesFrontendWatches(t *testing.T) {
	// Regression: a destroyed guest's netfront watch must leave the
	// store, or churn makes every write progressively slower.
	e := NewEnv(sim.NewClock(), sched.Xeon4)
	drv := e.ForMode(ModeChaosXS)
	baseline := e.Store.NumWatches()
	for i := 0; i < 20; i++ {
		vm, err := drv.Create(fmt.Sprintf("churn%d", i), guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.Destroy(vm); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Store.NumWatches(); got != baseline {
		t.Fatalf("watches leaked under churn: %d → %d", baseline, got)
	}
}

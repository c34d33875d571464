package toolstack

import (
	"errors"
	"testing"

	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
)

// TestStaleLeaseFencedAtToolstackBoundary drives the ownership fence
// directly: once the lease checker reports a claim stale (the domain
// was placed elsewhere under a newer epoch), destroy is refused with
// ErrStaleLease, and a scrub reaps the stale copy and drops the claim,
// leaving an environment Fsck finds clean.
func TestStaleLeaseFencedAtToolstackBoundary(t *testing.T) {
	for _, mode := range []Mode{ModeXL, ModeChaosNoXS} {
		t.Run(mode.String(), func(t *testing.T) {
			e := NewEnv(sim.NewClock(), sched.Xeon4)
			current := map[string]uint64{"vm0": 1}
			e.LeaseCheck = func(name string, epoch uint64) bool { return current[name] == epoch }
			drv := e.ForMode(mode)
			vm, err := drv.Create("vm0", guest.Daytime())
			if err != nil {
				t.Fatal(err)
			}
			e.GrantLease("vm0", 1, mode.UsesStore())
			if err := e.CheckLease("vm0"); err != nil {
				t.Fatalf("current claim rejected: %v", err)
			}

			current["vm0"] = 2 // failed over while this host was cut off
			if err := drv.Destroy(vm); !errors.Is(err, ErrStaleLease) {
				t.Fatalf("stale destroy: %v, want ErrStaleLease", err)
			}
			if e.StaleRejections() == 0 {
				t.Fatal("fence rejection not counted")
			}

			e.Scrub(mode)
			if _, err := e.VM("vm0"); err == nil {
				t.Fatal("stale copy survived the scrub")
			}
			if _, held := e.LeaseEpoch("vm0"); held {
				t.Fatal("stale claim survived the scrub")
			}
			if v := Fsck(e); len(v) > 0 {
				t.Fatalf("fsck after scrub: %v", v)
			}
		})
	}
}

package migrate

import (
	"errors"
	"testing"

	"lightvm/internal/faults"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/xenbus"
)

func TestCorruptCheckpointBlobIsTyped(t *testing.T) {
	clock := sim.NewClock()
	e := newEnv(clock)
	vm, _ := createVM(t, e, toolstack.ModeChaosNoXS, "corrupt")
	cp, _, err := Save(e, vm)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		bad := &Checkpoint{Name: cp.Name, Image: cp.Image, Mode: cp.Mode, MemBytes: cp.MemBytes}
		bad.Blob = append([]byte(nil), cp.Blob[:len(cp.Blob)/2]...)
		if _, _, err := Restore(e, bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("restore of truncated blob: %v, want ErrBadCheckpoint", err)
		}
	})

	t.Run("bit-flipped", func(t *testing.T) {
		bad := &Checkpoint{Name: cp.Name, Image: cp.Image, Mode: cp.Mode, MemBytes: cp.MemBytes}
		bad.Blob = append([]byte(nil), cp.Blob...)
		// Flip every byte: whatever gob makes of that, the descriptor
		// either fails to decode or fails the integrity check.
		for i := range bad.Blob {
			bad.Blob[i] ^= 0xff
		}
		if _, _, err := Restore(e, bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("restore of corrupted blob: %v, want ErrBadCheckpoint", err)
		}
	})

	t.Run("envelope-mismatch", func(t *testing.T) {
		bad := &Checkpoint{Name: "somebody-else", Image: cp.Image, Mode: cp.Mode, MemBytes: cp.MemBytes, Blob: cp.Blob}
		if _, _, err := Restore(e, bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("restore with mismatched envelope: %v, want ErrBadCheckpoint", err)
		}
	})

	t.Run("bad-mode", func(t *testing.T) {
		for _, mode := range []toolstack.Mode{-1, 7} {
			bad := *cp
			bad.Mode = mode
			if _, _, err := Restore(e, &bad); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("restore with mode %d: %v, want ErrBadCheckpoint", int(mode), err)
			}
			raw, err := bad.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalCheckpoint(raw); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("unmarshal with mode %d: %v, want ErrBadCheckpoint", int(mode), err)
			}
		}
	})

	t.Run("unmarshal-corrupted", func(t *testing.T) {
		raw, err := cp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalCheckpoint(raw[:len(raw)-4]); err == nil {
			t.Fatal("unmarshal of truncated checkpoint succeeded")
		}
	})

	// The pristine checkpoint must still restore (corruption detection
	// has no false positives).
	if _, _, err := Restore(e, cp); err != nil {
		t.Fatalf("pristine checkpoint failed to restore: %v", err)
	}
}

// dropPlan forces every migration stream attempt to drop.
func dropPlan(clock *sim.Clock) *faults.Injector {
	return faults.New(clock, 21, faults.Plan{Rate: 1, Kinds: []faults.Kind{faults.KindMigrationDrop}})
}

func TestMigrationDropRollsBackStorePath(t *testing.T) {
	clock := sim.NewClock()
	src, dst := newEnv(clock), newEnv(clock)
	vm, _ := createVM(t, src, toolstack.ModeXL, "mg")
	src.SetFaults(dropPlan(clock))

	dstNodes := dst.Store.NumNodes()
	dstDoms := dst.HV.NumDomains()

	_, _, err := Migrate(src, dst, vm)
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("store-path drop: %v, want ErrMigrationAborted", err)
	}
	// Source resumed in place.
	back, verr := src.VM("mg")
	if verr != nil {
		t.Fatalf("source VM gone after rollback: %v", verr)
	}
	if !back.Booted {
		t.Fatal("source VM not booted after rollback")
	}
	if back.Dom.State != hv.StateRunning {
		t.Fatalf("source domain state %v after rollback, want running", back.Dom.State)
	}
	// Destination fully reaped: no VM, no domain, store subtree clean.
	if dst.VMs() != 0 {
		t.Fatal("destination still tracks the aborted VM")
	}
	if dst.HV.NumDomains() != dstDoms {
		t.Fatal("destination domain leaked by rollback")
	}
	if got := dst.Store.NumNodes(); got != dstNodes {
		t.Fatalf("destination store has %d nodes after rollback, want %d", got, dstNodes)
	}
}

func TestMigrationDropExhaustsResumesOnNoxs(t *testing.T) {
	clock := sim.NewClock()
	src, dst := newEnv(clock), newEnv(clock)
	vm, _ := createVM(t, src, toolstack.ModeChaosNoXS, "mg")
	inj := dropPlan(clock)
	src.SetFaults(inj)

	dstDoms := dst.HV.NumDomains()
	_, _, err := Migrate(src, dst, vm)
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("noxs path with every attempt dropped: %v, want ErrMigrationAborted", err)
	}
	// The noxs stream resumed before giving up: one initial attempt
	// plus StreamResumes resumes were all dropped.
	if got := inj.Injected(faults.KindMigrationDrop); got != StreamResumes+1 {
		t.Fatalf("got %d drops before abort, want %d", got, StreamResumes+1)
	}
	if _, verr := src.VM("mg"); verr != nil {
		t.Fatalf("source VM gone after rollback: %v", verr)
	}
	if dst.VMs() != 0 || dst.HV.NumDomains() != dstDoms {
		t.Fatal("destination not reaped after noxs rollback")
	}
}

func TestMigrationResumeSurvivesTransientDrops(t *testing.T) {
	// With a drop probability of 0.5 some seed quickly yields a
	// migration that drops at least once yet completes via the noxs
	// resume protocol, paying more than the undisturbed transfer.
	baselineClock := sim.NewClock()
	bSrc, bDst := newEnv(baselineClock), newEnv(baselineClock)
	bVM, _ := createVM(t, bSrc, toolstack.ModeChaosNoXS, "mg")
	_, baseline, err := Migrate(bSrc, bDst, bVM)
	if err != nil {
		t.Fatal(err)
	}

	for seed := uint64(1); seed <= 64; seed++ {
		clock := sim.NewClock()
		src, dst := newEnv(clock), newEnv(clock)
		vm, _ := createVM(t, src, toolstack.ModeChaosNoXS, "mg")
		inj := faults.New(clock, seed, faults.Plan{Rate: 0.5, Kinds: []faults.Kind{faults.KindMigrationDrop}})
		src.SetFaults(inj)
		moved, d, err := Migrate(src, dst, vm)
		if err != nil || inj.Injected(faults.KindMigrationDrop) == 0 {
			continue // aborted, or no drop happened — try the next seed
		}
		if moved == nil || !moved.Booted {
			t.Fatal("resumed migration returned a dead VM")
		}
		if d <= baseline {
			t.Fatalf("migration with %d drops took %v, not slower than undisturbed %v",
				inj.Injected(faults.KindMigrationDrop), d, baseline)
		}
		return
	}
	t.Fatal("no seed in 1..64 produced a dropped-then-resumed migration")
}

func TestMigrationRollbackKeepsSourceUsable(t *testing.T) {
	clock := sim.NewClock()
	src, dst := newEnv(clock), newEnv(clock)
	vm, drv := createVM(t, src, toolstack.ModeXL, "mg")
	src.SetFaults(dropPlan(clock))
	if _, _, err := Migrate(src, dst, vm); !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("want ErrMigrationAborted, got %v", err)
	}
	// Clear the fault plane: the rolled-back VM must migrate cleanly
	// now and be destroyable afterwards — rollback left no debris.
	src.SetFaults(nil)
	src.Store.Faults = nil
	moved, d, err := Migrate(src, dst, vm)
	if err != nil {
		t.Fatalf("migration after rollback: %v", err)
	}
	if d <= 0 {
		t.Fatal("zero migration time")
	}
	if err := dst.ForMode(moved.Mode).Destroy(moved); err != nil {
		t.Fatalf("destroy after recovered migration: %v", err)
	}
	_ = drv
}

// A restore or migration whose destination fails mid-pre-creation (every
// backend handshake lost) must unwind exactly like a failed create: no
// registry subtree, backend dir or domain left behind, and Fsck clean.
func TestFailedPreCreationLeavesNoState(t *testing.T) {
	stall := func(clock *sim.Clock) *faults.Injector {
		return faults.New(clock, 3, faults.Plan{Rate: 1, Kinds: []faults.Kind{faults.KindHandshakeStall}})
	}
	clean := func(t *testing.T, e *toolstack.Env, nodes, doms int) {
		t.Helper()
		if v := toolstack.Fsck(e); len(v) != 0 {
			t.Fatalf("fsck after failed pre-creation: %v", v)
		}
		// At most as many: on xl the rollback also reaps the /vm/<name>
		// tree a Save leaves behind.
		if got := e.Store.NumNodes(); got > nodes {
			t.Fatalf("store grew from %d to %d nodes across the failure", nodes, got)
		}
		if got := e.HV.NumDomains(); got != doms {
			t.Fatalf("%d domains after the failure, want %d", got, doms)
		}
		if e.VMs() != 0 {
			t.Fatal("failed pre-creation left a tracked VM")
		}
	}
	for _, mode := range []toolstack.Mode{toolstack.ModeXL, toolstack.ModeChaosXS} {
		t.Run(mode.String()+"/restore", func(t *testing.T) {
			clock := sim.NewClock()
			e := newEnv(clock)
			vm, _ := createVM(t, e, mode, "rs")
			cp, _, err := Save(e, vm)
			if err != nil {
				t.Fatal(err)
			}
			nodes, doms := e.Store.NumNodes(), e.HV.NumDomains()
			e.SetFaults(stall(clock))
			if _, _, err := Restore(e, cp); !errors.Is(err, xenbus.ErrDeviceTimeout) {
				t.Fatalf("restore with every handshake lost: %v, want ErrDeviceTimeout", err)
			}
			clean(t, e, nodes, doms)
		})
		t.Run(mode.String()+"/migrate", func(t *testing.T) {
			clock := sim.NewClock()
			src, dst := newEnv(clock), newEnv(clock)
			vm, _ := createVM(t, src, mode, "mg")
			nodes, doms := dst.Store.NumNodes(), dst.HV.NumDomains()
			dst.SetFaults(stall(clock))
			if _, _, err := Migrate(src, dst, vm); !errors.Is(err, xenbus.ErrDeviceTimeout) {
				t.Fatalf("migration with every handshake lost: %v, want ErrDeviceTimeout", err)
			}
			clean(t, dst, nodes, doms)
			if back, err := src.VM("mg"); err != nil || !back.Booted {
				t.Fatalf("source VM not left running: %v", err)
			}
		})
	}
}

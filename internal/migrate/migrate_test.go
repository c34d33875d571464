package migrate

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

func newEnv(clock *sim.Clock) *toolstack.Env {
	return toolstack.NewEnv(clock, sched.Xeon4Ckpt)
}

func createVM(t testing.TB, e *toolstack.Env, mode toolstack.Mode, name string) (*toolstack.VM, toolstack.Driver) {
	t.Helper()
	drv := e.ForMode(mode)
	vm, err := drv.Create(name, guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	return vm, drv
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	for _, mode := range []toolstack.Mode{toolstack.ModeXL, toolstack.ModeChaosXS, toolstack.ModeChaosNoXS} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			clock := sim.NewClock()
			e := newEnv(clock)
			vm, _ := createVM(t, e, mode, "ckpt")
			domsBefore := e.HV.NumDomains()

			cp, saveTime, err := Save(e, vm)
			if err != nil {
				t.Fatal(err)
			}
			if saveTime <= 0 {
				t.Fatal("zero save time")
			}
			if e.HV.NumDomains() != domsBefore-1 {
				t.Fatal("saved domain still present")
			}
			if e.VMs() != 0 {
				t.Fatal("saved VM still tracked")
			}
			if len(cp.Blob) == 0 {
				t.Fatal("checkpoint has no serialized descriptor")
			}

			restored, restoreTime, err := Restore(e, cp)
			if err != nil {
				t.Fatal(err)
			}
			if restoreTime <= 0 {
				t.Fatal("zero restore time")
			}
			if restored.Name != "ckpt" || !restored.Booted {
				t.Fatalf("restored VM state: %+v", restored)
			}
			if e.HV.NumDomains() != domsBefore {
				t.Fatal("restore did not recreate the domain")
			}
		})
	}
}

func TestCheckpointBlobDecodes(t *testing.T) {
	clock := sim.NewClock()
	e := newEnv(clock)
	vm, _ := createVM(t, e, toolstack.ModeChaosNoXS, "enc")
	cp, _, err := Save(e, vm)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decode(cp.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "enc" || d.ImageName != "daytime" || d.MemBytes != guest.Daytime().MemBytes {
		t.Fatalf("descriptor = %+v", d)
	}
	if len(d.Devices) != 1 {
		t.Fatalf("descriptor devices = %v", d.Devices)
	}
	if _, err := decode([]byte("garbage")); err == nil {
		t.Fatal("garbage blob decoded")
	}
}

func TestLightVMCheckpointTimes(t *testing.T) {
	// §6.1/§6.2: "LightVM can save a VM in around 30ms and restore it
	// in 20ms ... while standard Xen needs 128ms and 550ms".
	clock := sim.NewClock()
	e := newEnv(clock)
	vm, _ := createVM(t, e, toolstack.ModeChaosNoXS, "lv")
	cp, saveT, err := Save(e, vm)
	if err != nil {
		t.Fatal(err)
	}
	if saveT < 10*time.Millisecond || saveT > 80*time.Millisecond {
		t.Fatalf("LightVM save = %v, want ≈30ms", saveT)
	}
	_, restT, err := Restore(e, cp)
	if err != nil {
		t.Fatal(err)
	}
	if restT < 5*time.Millisecond || restT > 60*time.Millisecond {
		t.Fatalf("LightVM restore = %v, want ≈20ms", restT)
	}
}

func TestXLCheckpointSlower(t *testing.T) {
	clock := sim.NewClock()
	e := newEnv(clock)
	vmXL, _ := createVM(t, e, toolstack.ModeXL, "xl")
	cpXL, saveXL, err := Save(e, vmXL)
	if err != nil {
		t.Fatal(err)
	}
	_, restXL, err := Restore(e, cpXL)
	if err != nil {
		t.Fatal(err)
	}

	clock2 := sim.NewClock()
	e2 := newEnv(clock2)
	vmLV, _ := createVM(t, e2, toolstack.ModeChaosNoXS, "lv")
	cpLV, saveLV, err := Save(e2, vmLV)
	if err != nil {
		t.Fatal(err)
	}
	_, restLV, err := Restore(e2, cpLV)
	if err != nil {
		t.Fatal(err)
	}
	if saveXL <= 2*saveLV {
		t.Fatalf("xl save (%v) should be ≫ noxs save (%v)", saveXL, saveLV)
	}
	if restXL <= 5*restLV {
		t.Fatalf("xl restore (%v) should be ≫ noxs restore (%v)", restXL, restLV)
	}
	// Paper magnitudes: xl ≈128ms save, ≈550ms restore.
	if saveXL < 80*time.Millisecond || saveXL > 300*time.Millisecond {
		t.Fatalf("xl save = %v, want ≈128ms", saveXL)
	}
	if restXL < 350*time.Millisecond || restXL > 900*time.Millisecond {
		t.Fatalf("xl restore = %v, want ≈550ms", restXL)
	}
}

func TestMigrateMovesVM(t *testing.T) {
	clock := sim.NewClock()
	src := newEnv(clock)
	dst := newEnv(clock)
	vm, _ := createVM(t, src, toolstack.ModeChaosNoXS, "mig")
	newVM, migT, err := Migrate(src, dst, vm)
	if err != nil {
		t.Fatal(err)
	}
	if migT <= 0 {
		t.Fatal("zero migration time")
	}
	if src.VMs() != 0 || src.HV.NumDomains() != 0 {
		t.Fatal("source still holds the VM")
	}
	if dst.VMs() != 1 || dst.HV.NumDomains() != 1 {
		t.Fatal("target does not hold the VM")
	}
	if !newVM.Booted || newVM.Name != "mig" {
		t.Fatalf("migrated VM: %+v", newVM)
	}
	// §6.2: ~60ms for the daytime unikernel with everything on.
	if migT < 30*time.Millisecond || migT > 200*time.Millisecond {
		t.Fatalf("LightVM-ish migration = %v, want ≈60ms", migT)
	}
}

func TestMigrateRequiresSharedClock(t *testing.T) {
	src := newEnv(sim.NewClock())
	dst := newEnv(sim.NewClock())
	vm, _ := createVM(t, src, toolstack.ModeChaosNoXS, "m")
	if _, _, err := Migrate(src, dst, vm); err == nil {
		t.Fatal("cross-clock migration accepted")
	}
}

func TestNoxsTeardownPenaltyVisible(t *testing.T) {
	// §6.2: "For low number of VMs the chaos + XenStore slightly
	// outperforms LightVM: this is due to device destruction times in
	// noxs which we have not yet optimized."
	migTime := func(mode toolstack.Mode) time.Duration {
		clock := sim.NewClock()
		src := newEnv(clock)
		dst := newEnv(clock)
		vm, _ := createVM(t, src, mode, "m")
		_, d, err := Migrate(src, dst, vm)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	xs := migTime(toolstack.ModeChaosXS)
	noxs := migTime(toolstack.ModeChaosNoXS)
	if xs >= noxs {
		t.Fatalf("at low N, chaos[XS] (%v) should beat chaos[NoXS] (%v)", xs, noxs)
	}
}

func TestMigrationScalesFlatForNoxs(t *testing.T) {
	clock := sim.NewClock()
	src := newEnv(clock)
	dst := newEnv(clock)
	drv := src.ForMode(toolstack.ModeChaosNoXS)
	var firstT, lastT time.Duration
	const rounds = 60
	for i := 0; i < rounds; i++ {
		vm, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		_, d, err := Migrate(src, dst, vm)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstT = d
		}
		if i == rounds-1 {
			lastT = d
		}
	}
	if float64(lastT) > 1.4*float64(firstT) {
		t.Fatalf("noxs migration grew: %v → %v", firstT, lastT)
	}
}

func TestRestoreDuplicateNameRejected(t *testing.T) {
	clock := sim.NewClock()
	e := newEnv(clock)
	vm, _ := createVM(t, e, toolstack.ModeChaosNoXS, "dup")
	cp, _, err := Save(e, vm)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(e, cp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(e, cp); err == nil {
		t.Fatal("second restore of same name accepted")
	}
}

func TestCheckpointMarshalRoundTrip(t *testing.T) {
	clock := sim.NewClock()
	e := newEnv(clock)
	vm, _ := createVM(t, e, toolstack.ModeChaosNoXS, "ship")
	cp, _, err := Save(e, vm)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint travels to a different host (fresh env, later
	// virtual time) and restores there.
	e2 := newEnv(clock)
	cp2, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := Restore(e2, cp2)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name != "ship" || !restored.Booted {
		t.Fatalf("restored: %+v", restored)
	}
	// Corruption is caught.
	if _, err := UnmarshalCheckpoint(data[:len(data)/2]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, err := UnmarshalCheckpoint([]byte("junk")); err == nil {
		t.Fatal("junk checkpoint accepted")
	}
}

func TestCheckpointCarriesStoreState(t *testing.T) {
	clock := sim.NewClock()
	e := newEnv(clock)
	vm, _ := createVM(t, e, toolstack.ModeChaosXS, "xsvm")
	oldDom := vm.Dom.ID
	cp, _, err := Save(e, vm)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.StoreState) == 0 {
		t.Fatal("store-backed checkpoint carries no registry snapshot")
	}
	// A fresh host knows nothing about the guest; the graft must bring
	// the registry entries back under the NEW domain id. The filler VM
	// shifts the id space so reuse would be visible.
	e2 := newEnv(clock)
	createVM(t, e2, toolstack.ModeChaosXS, "filler")
	restored, _, err := Restore(e2, cp)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Dom.ID == oldDom {
		t.Fatalf("restore reused domain id %d", oldDom)
	}
	path := fmt.Sprintf("/local/domain/%d/name", restored.Dom.ID)
	if v, err := e2.Store.Read(path); err != nil || v != "xsvm" {
		t.Fatalf("restored registry %s = %q, %v", path, v, err)
	}

	// Tampered registry state is rejected, both by the wire decoder and
	// by Restore itself.
	data, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := *cp
	bad.StoreState = append([]byte{}, cp.StoreState...)
	bad.StoreState[len(bad.StoreState)-1] ^= 0xff
	if _, _, err := Restore(newEnv(clock), &bad); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("tampered store state restore: %v", err)
	}
	if _, err := UnmarshalCheckpoint(data); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	bad2 := *cp
	bad2.StoreState = nil
	if _, _, err := Restore(newEnv(clock), &bad2); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("missing store state restore: %v", err)
	}

	// noxs checkpoints stay store-free.
	e3 := newEnv(clock)
	vm3, _ := createVM(t, e3, toolstack.ModeChaosNoXS, "noxs")
	cp3, _, err := Save(e3, vm3)
	if err != nil {
		t.Fatal(err)
	}
	if cp3.StoreState != nil {
		t.Fatal("noxs checkpoint grew a store snapshot")
	}
}

func TestMigrationFailureLeavesSourceIntact(t *testing.T) {
	clock := sim.NewClock()
	src := newEnv(clock)
	// Destination too small for anything after Dom0.
	dst := toolstack.NewEnv(clock, sched.Machine{Name: "full", Cores: 4, Dom0Cores: 2, MemoryGB: 1})
	// Fill the destination with small guests until nothing fits…
	fillDrv := dst.ForMode(toolstack.ModeChaosNoXS)
	for i := 0; i < 512; i++ {
		if _, err := fillDrv.Create(fmt.Sprintf("f%d", i), guest.Noop()); err != nil {
			break
		}
	}
	// …then migrate a guest that needs more than any remaining hole.
	drv := src.ForMode(toolstack.ModeChaosNoXS)
	vm, err := drv.Create("survivor", guest.Minipython())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Migrate(src, dst, vm); err == nil {
		t.Fatal("migration to a full host succeeded")
	}
	// The source VM is untouched and still serviceable.
	got, err := src.VM("survivor")
	if err != nil || !got.Booted {
		t.Fatalf("source VM damaged: %v %v", got, err)
	}
	cp, _, err := Save(src, got)
	if err != nil || cp == nil {
		t.Fatalf("source VM unusable after failed migration: %v", err)
	}
}

func TestFailedMigrationLeaksNothingOnTarget(t *testing.T) {
	clock := sim.NewClock()
	src := newEnv(clock)
	dst := toolstack.NewEnv(clock, sched.Machine{Name: "full2", Cores: 4, Dom0Cores: 2, MemoryGB: 1})
	fillDrv := dst.ForMode(toolstack.ModeChaosNoXS)
	filled := 0
	for i := 0; i < 512; i++ {
		if _, err := fillDrv.Create(fmt.Sprintf("f%d", i), guest.Noop()); err != nil {
			break
		}
		filled++
	}
	domsBefore := dst.HV.NumDomains()
	vmsBefore := dst.VMs()
	drv := src.ForMode(toolstack.ModeChaosNoXS)
	vm, err := drv.Create("m", guest.Minipython())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Migrate(src, dst, vm); err == nil {
		t.Skip("destination unexpectedly had room")
	}
	if dst.HV.NumDomains() != domsBefore {
		t.Fatalf("failed migration leaked a domain on dst: %d → %d", domsBefore, dst.HV.NumDomains())
	}
	if dst.VMs() != vmsBefore {
		t.Fatal("failed migration left a tracked VM on dst")
	}
	_ = filled
}

// TestStreamCostScalesWithMemory: the logical-process migration delay
// is TCP setup + pages over the wire + an RTT, so a bigger guest must
// cost proportionally more and nothing can beat the fixed floor.
func TestStreamCostScalesWithMemory(t *testing.T) {
	clock := sim.NewClock()
	e := newEnv(clock)
	small, _ := createVM(t, e, toolstack.ModeChaosXS, "small")
	cpSmall, _, err := Save(e, small)
	if err != nil {
		t.Fatal(err)
	}
	costSmall := StreamCost(cpSmall)
	if costSmall <= 0 {
		t.Fatalf("StreamCost = %v, want > 0", costSmall)
	}
	double := *cpSmall
	double.MemBytes *= 2
	if StreamCost(&double) <= costSmall {
		t.Fatalf("doubling memory did not raise the stream cost (%v vs %v)",
			StreamCost(&double), costSmall)
	}
	wireOnly := *cpSmall
	wireOnly.MemBytes = 0
	if got := StreamCost(&wireOnly); got <= 0 {
		t.Fatalf("zero-page checkpoint costs %v, want the TCP setup + RTT floor", got)
	}
}

// TestSaveShipRestoreAcrossClocks is the sharded cluster's migration
// path in miniature: Save on the source host's private timeline, a
// StreamCost of wire delay, Restore on a destination running its own
// clock. Migrate() requires a shared clock; the checkpoint hop must
// not.
func TestSaveShipRestoreAcrossClocks(t *testing.T) {
	srcClock, dstClock := sim.NewClock(), sim.NewClock()
	src, dst := newEnv(srcClock), newEnv(dstClock)
	// Skew the timelines: the destination lives in the source's past.
	srcClock.Sleep(5 * time.Second)

	vm, _ := createVM(t, src, toolstack.ModeChaosXS, "roam")
	cp, saveTime, err := Save(src, vm)
	if err != nil {
		t.Fatal(err)
	}
	if saveTime <= 0 {
		t.Fatal("save charged no virtual time")
	}
	// Ship: the wire delay lands on the destination's own timeline.
	dstClock.Sleep(StreamCost(cp))
	restored, restoreTime, err := Restore(dst, cp)
	if err != nil {
		t.Fatal(err)
	}
	if restoreTime <= 0 {
		t.Fatal("restore charged no virtual time")
	}
	if !restored.Booted || restored.Name != "roam" {
		t.Fatalf("restored VM not serviceable: %+v", restored)
	}
	if _, err := src.VM("roam"); err == nil {
		t.Fatal("source still tracks the migrated VM")
	}
	if got, err := dst.VM("roam"); err != nil || got != restored {
		t.Fatalf("destination does not track the restored VM: %v", err)
	}
	// The two clocks never interacted: the source is still where Save
	// left it, far ahead of the destination.
	if srcClock.Now() <= dstClock.Now() {
		t.Fatalf("clock skew collapsed: src %v, dst %v", srcClock.Now(), dstClock.Now())
	}
}

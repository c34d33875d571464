package toolstack

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
)

func newEnv() *Env {
	return NewEnv(sim.NewClock(), sched.Xeon4)
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeXL: "xl", ModeChaosXS: "chaos [XS]", ModeChaosSplit: "chaos [XS+split]",
		ModeChaosNoXS: "chaos [NoXS]", ModeLightVM: "LightVM",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if !ModeXL.UsesStore() || ModeLightVM.UsesStore() {
		t.Fatal("UsesStore wrong")
	}
	if !ModeLightVM.UsesSplit() || ModeChaosNoXS.UsesSplit() {
		t.Fatal("UsesSplit wrong")
	}
}

func TestCreateDestroyAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeXL, ModeChaosXS, ModeChaosSplit, ModeChaosNoXS, ModeLightVM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv()
			drv := e.ForMode(mode)
			if mode.UsesSplit() {
				e.Pool.Register(FlavorFor(guest.Daytime(), mode.UsesStore()))
				if err := e.Pool.Replenish(); err != nil {
					t.Fatal(err)
				}
			}
			vm, err := drv.Create("g1", guest.Daytime())
			if err != nil {
				t.Fatal(err)
			}
			if !vm.Booted {
				t.Fatal("VM not booted after Create")
			}
			if vm.CreateTime <= 0 || vm.BootTime <= 0 {
				t.Fatalf("times: create=%v boot=%v", vm.CreateTime, vm.BootTime)
			}
			if e.VMs() != 1 {
				t.Fatalf("env tracks %d VMs", e.VMs())
			}
			usedBefore := e.HV.UsedMemBytes()
			if err := drv.Destroy(vm); err != nil {
				t.Fatal(err)
			}
			if e.VMs() != 0 {
				t.Fatal("VM not forgotten after destroy")
			}
			if e.HV.UsedMemBytes() >= usedBefore {
				t.Fatal("destroy did not release memory")
			}
		})
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	if _, err := drv.Create("dup", guest.Noop()); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Create("dup", guest.Noop()); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestVMLookup(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	vm, _ := drv.Create("findme", guest.Noop())
	got, err := e.VM("findme")
	if err != nil || got != vm {
		t.Fatalf("VM lookup: %v", err)
	}
	if _, err := e.VM("ghost"); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("ghost lookup: %v", err)
	}
}

func TestXLBreakdownShape(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeXL)
	vm, err := drv.Create("bd", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	bd := vm.LastBreakdown
	if bd.XenStore == 0 || bd.Devices == 0 || bd.Hypervisor == 0 || bd.Load == 0 || bd.Config == 0 {
		t.Fatalf("breakdown has empty categories: %+v", bd)
	}
	// At N=0, device creation (bash hotplug) dominates — Fig. 5:
	// "Device creation dominates the guest instantiation times when
	// the number of currently running guests is low".
	if bd.Devices <= bd.XenStore {
		t.Fatalf("at N=0 devices (%v) should dominate xenstore (%v)", bd.Devices, bd.XenStore)
	}
	// The breakdown should account for (almost all of) the total.
	sum := bd.Total()
	if sum > vm.CreateTime || vm.CreateTime-sum > vm.CreateTime/4 {
		t.Fatalf("breakdown sum %v vs create %v", sum, vm.CreateTime)
	}
}

func TestXenStoreCategoryGrows(t *testing.T) {
	// Fig. 5: "the time spent on XenStore interactions increases
	// superlinearly" while "device creation ... stays roughly constant".
	e := newEnv()
	drv := e.ForMode(ModeXL)
	first, err := drv.Create("g0", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 120; i++ {
		if _, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime()); err != nil {
			t.Fatal(err)
		}
	}
	last, err := drv.Create("gN", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if last.LastBreakdown.XenStore < 2*first.LastBreakdown.XenStore {
		t.Fatalf("xenstore category flat: %v → %v",
			first.LastBreakdown.XenStore, last.LastBreakdown.XenStore)
	}
	ratio := float64(last.LastBreakdown.Devices) / float64(first.LastBreakdown.Devices)
	if ratio > 1.5 {
		t.Fatalf("devices category grew %.2f×, should stay ~constant", ratio)
	}
}

func TestCreationTimeOrderingAcrossModes(t *testing.T) {
	// Fig. 9 at N≈100: xl > chaos[XS] > chaos[XS+split] > chaos[NoXS]
	// ≥ LightVM.
	times := map[Mode]time.Duration{}
	for _, mode := range []Mode{ModeXL, ModeChaosXS, ModeChaosSplit, ModeChaosNoXS, ModeLightVM} {
		e := newEnv()
		drv := e.ForMode(mode)
		for i := 0; i < 100; i++ {
			if mode.UsesSplit() {
				if err := e.Pool.Replenish(); err != nil {
					t.Fatal(err)
				}
				e.Pool.Register(FlavorFor(guest.Daytime(), mode.UsesStore()))
			}
			if _, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime()); err != nil {
				t.Fatal(err)
			}
		}
		vm, err := drv.Create("probe", guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		times[mode] = vm.CreateTime + vm.BootTime
	}
	order := []Mode{ModeXL, ModeChaosXS, ModeChaosSplit, ModeChaosNoXS}
	for i := 0; i < len(order)-1; i++ {
		if times[order[i]] <= times[order[i+1]] {
			t.Fatalf("ordering violated: %v(%v) ≤ %v(%v); all=%v",
				order[i], times[order[i]], order[i+1], times[order[i+1]], times)
		}
	}
	if times[ModeLightVM] > times[ModeChaosNoXS] {
		t.Fatalf("LightVM (%v) slower than chaos[NoXS] (%v)", times[ModeLightVM], times[ModeChaosNoXS])
	}
}

func TestLightVMNoopFloor(t *testing.T) {
	// §6.1: "a noop unikernel with no devices and all optimizations
	// results in a minimum boot time of 2.3ms". Ours must land in the
	// same ballpark (1–4 ms).
	e := newEnv()
	drv := e.ForMode(ModeLightVM)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	// Seed the flavor, replenish, then measure.
	f := FlavorFor(guest.Noop(), false)
	e.Pool.Register(f)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	vm, err := drv.Create("noop", guest.Noop())
	if err != nil {
		t.Fatal(err)
	}
	total := vm.CreateTime + vm.BootTime
	if total < time.Millisecond || total > 4*time.Millisecond {
		t.Fatalf("LightVM noop create+boot = %v, want ≈2.3ms", total)
	}
	if e.Pool.Stats.Misses != 0 {
		t.Fatalf("pool missed %d times", e.Pool.Stats.Misses)
	}
}

func TestLightVMFlatScaling(t *testing.T) {
	// Fig. 9: "boot times as low as 4ms going up to just 4.1ms for the
	// 1,000th VM" — creation must be essentially flat. We check 300
	// guests: growth below 30%.
	e := newEnv()
	drv := e.ForMode(ModeLightVM)
	f := FlavorFor(guest.Daytime(), false)
	e.Pool.Register(f)
	var firstTime, lastTime time.Duration
	for i := 0; i < 300; i++ {
		if err := e.Pool.Replenish(); err != nil {
			t.Fatal(err)
		}
		vm, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		total := vm.CreateTime + vm.BootTime
		if i == 0 {
			firstTime = total
		}
		if i == 299 {
			lastTime = total
		}
	}
	if float64(lastTime) > 1.3*float64(firstTime) {
		t.Fatalf("LightVM not flat: first=%v last=%v", firstTime, lastTime)
	}
}

func TestPoolMissFallsBackInline(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeLightVM)
	// Empty pool: creation must still succeed (inline prepare) and
	// record a miss.
	vm, err := drv.Create("miss", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if e.Pool.Stats.Misses != 1 {
		t.Fatalf("misses = %d", e.Pool.Stats.Misses)
	}
	if !vm.Booted {
		t.Fatal("VM not booted after inline fallback")
	}
}

func TestPoolHitFasterThanMiss(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeLightVM)
	vmMiss, err := drv.Create("m", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	vmHit, err := drv.Create("h", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if vmHit.CreateTime >= vmMiss.CreateTime {
		t.Fatalf("pool hit (%v) not faster than miss (%v)", vmHit.CreateTime, vmMiss.CreateTime)
	}
}

func TestPoolReplenishKeepsDepth(t *testing.T) {
	e := newEnv()
	e.Pool.SetTarget(5)
	f := FlavorFor(guest.Noop(), false)
	e.Pool.Register(f)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pool.Available(f); got != 5 {
		t.Fatalf("pool depth %d, want 5", got)
	}
	s := e.Pool.Take(f)
	if s == nil {
		t.Fatal("Take returned nil with stocked pool")
	}
	if got := e.Pool.Available(f); got != 4 {
		t.Fatalf("depth after take %d", got)
	}
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pool.Available(f); got != 5 {
		t.Fatalf("depth after replenish %d", got)
	}
}

func TestNoXSCreateTouchesNoStore(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	opsBefore := e.Store.Count.Ops
	if _, err := drv.Create("nostore", guest.Daytime()); err != nil {
		t.Fatal(err)
	}
	if e.Store.Count.Ops != opsBefore {
		t.Fatalf("noxs creation performed %d store ops", e.Store.Count.Ops-opsBefore)
	}
}

func TestStoreNodesPerGuest(t *testing.T) {
	// The stock toolstack leaves tens of nodes per guest; chaos leaves
	// far fewer; noxs none.
	count := func(mode Mode) int {
		e := newEnv()
		drv := e.ForMode(mode)
		for i := 0; i < 10; i++ {
			if _, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime()); err != nil {
				t.Fatal(err)
			}
		}
		return e.Store.NumNodes() / 10
	}
	xl, chaos, noxs := count(ModeXL), count(ModeChaosXS), count(ModeChaosNoXS)
	if xl < 20 {
		t.Fatalf("xl leaves %d nodes/guest, want ≥20", xl)
	}
	if chaos >= xl {
		t.Fatalf("chaos (%d) not leaner than xl (%d)", chaos, xl)
	}
	if noxs != 0 {
		t.Fatalf("noxs left %d store nodes/guest", noxs)
	}
}

func TestDebianSlowerThanTinyxSlowerThanUnikernel(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeXL)
	uni, err := drv.Create("u", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	tx, err := drv.Create("t", guest.TinyxNoop())
	if err != nil {
		t.Fatal(err)
	}
	deb, err := drv.Create("d", guest.DebianMinimal())
	if err != nil {
		t.Fatal(err)
	}
	tu := uni.CreateTime + uni.BootTime
	tt := tx.CreateTime + tx.BootTime
	td := deb.CreateTime + deb.BootTime
	if !(tu < tt && tt < td) {
		t.Fatalf("ordering: uni=%v tinyx=%v debian=%v", tu, tt, td)
	}
	// Fig. 4 @ N=0: Debian ≈ 2s, Tinyx ≈ 540ms, daytime ≈ 83ms.
	if td < time.Second || td > 5*time.Second {
		t.Fatalf("debian create+boot = %v, want ≈2s", td)
	}
	if tt < 150*time.Millisecond || tt > 1200*time.Millisecond {
		t.Fatalf("tinyx create+boot = %v, want ≈540ms", tt)
	}
	if tu < 30*time.Millisecond || tu > 300*time.Millisecond {
		t.Fatalf("daytime create+boot = %v, want ≈100ms", tu)
	}
}

func TestMemDedupReducesFootprint(t *testing.T) {
	footprint := func(dedup bool) uint64 {
		e := newEnv()
		e.MemDedup = dedup
		drv := e.ForMode(ModeChaosNoXS)
		base := e.HV.UsedMemBytes()
		for i := 0; i < 20; i++ {
			if _, err := drv.Create(fmt.Sprintf("g%d", i), guest.Minipython()); err != nil {
				t.Fatal(err)
			}
		}
		return e.HV.UsedMemBytes() - base
	}
	plain := footprint(false)
	shared := footprint(true)
	if shared >= plain {
		t.Fatalf("dedup footprint %d not below plain %d", shared, plain)
	}
	// Saving should be substantial but not total: the private heap
	// half remains per guest.
	ratio := float64(shared) / float64(plain)
	if ratio < 0.2 || ratio > 0.9 {
		t.Fatalf("dedup ratio = %.2f", ratio)
	}
}

func TestMemDedupDestroyReleasesShares(t *testing.T) {
	e := newEnv()
	e.MemDedup = true
	drv := e.ForMode(ModeChaosNoXS)
	base := e.HV.UsedMemBytes()
	var vms []*VM
	for i := 0; i < 5; i++ {
		vm, err := drv.Create(fmt.Sprintf("g%d", i), guest.Minipython())
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	for _, vm := range vms {
		if err := drv.Destroy(vm); err != nil {
			t.Fatal(err)
		}
	}
	if e.HV.UsedMemBytes() != base {
		t.Fatalf("dedup teardown leaked: %d vs %d", e.HV.UsedMemBytes(), base)
	}
	if e.HV.Share.Regions() != 0 {
		t.Fatal("shared regions survived")
	}
}

func TestUkvmDriver(t *testing.T) {
	e := newEnv()
	drv := NewUkvm(e)
	if drv.Name() != "ukvm" {
		t.Fatal("name")
	}
	opsBefore := e.Store.Count.Ops // backends register watches at env setup
	vm, err := drv.Create("mirage", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	total := vm.CreateTime + vm.BootTime
	// The §9 citation: ~10ms boots.
	if total < 5*time.Millisecond || total > 15*time.Millisecond {
		t.Fatalf("ukvm create+boot = %v, want ≈10ms", total)
	}
	// ukvm never touches the store.
	if e.Store.Count.Ops != opsBefore {
		t.Fatalf("ukvm performed %d store ops", e.Store.Count.Ops-opsBefore)
	}
	if err := drv.Destroy(vm); err != nil {
		t.Fatal(err)
	}
	if e.VMs() != 0 || e.HV.NumDomains() != 0 {
		t.Fatal("ukvm teardown incomplete")
	}
	// Only unikernels are accepted.
	if _, err := drv.Create("fat", guest.TinyxNoop()); err == nil {
		t.Fatal("ukvm accepted a Linux guest")
	}
}

func TestConsoleBanner(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	vm, err := drv.Create("bannered", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Console.Read(vm.Dom.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bannered", "daytime", "noxs", "ready in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("console %q missing %q", out, want)
		}
	}
	if err := drv.Destroy(vm); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Console.Read(vm.Dom.ID); err == nil {
		t.Fatal("console survived destroy")
	}
}

func TestCloneVM(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	parent, err := drv.Create("parent", guest.Minipython())
	if err != nil {
		t.Fatal(err)
	}
	memAfterParent := e.HV.UsedMemBytes()

	c1, err := e.CloneVM(parent, "clone-1")
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Booted || c1.BootTime != 0 {
		t.Fatalf("clone state: booted=%v boot=%v", c1.Booted, c1.BootTime)
	}
	firstCloneMem := e.HV.UsedMemBytes() - memAfterParent
	c2, err := e.CloneVM(parent, "clone-2")
	if err != nil {
		t.Fatal(err)
	}
	secondCloneMem := e.HV.UsedMemBytes() - memAfterParent - firstCloneMem
	// The second clone shares the snapshot: far cheaper in memory.
	if secondCloneMem*2 >= firstCloneMem {
		t.Fatalf("clone memory: first=%d second=%d (no sharing?)", firstCloneMem, secondCloneMem)
	}
	// Later clones are faster too (no snapshot pass).
	if c2.CreateTime >= c1.CreateTime {
		t.Fatalf("second clone (%v) not faster than first (%v)", c2.CreateTime, c1.CreateTime)
	}
	// Clones have their own devices.
	entries, err := e.HV.DevicePageMap(c2.Dom.ID)
	if err != nil || len(entries) != 2 { // vif + sysctl
		t.Fatalf("clone devices = %v, %v", entries, err)
	}
	// Teardown order doesn't matter: parent first, then clones.
	if err := drv.Destroy(parent); err != nil {
		t.Fatal(err)
	}
	if err := drv.Destroy(c1); err != nil {
		t.Fatal(err)
	}
	if err := drv.Destroy(c2); err != nil {
		t.Fatal(err)
	}
	if e.HV.Share.Regions() != 0 {
		t.Fatal("clone snapshot leaked")
	}
	if e.VMs() != 0 || e.HV.NumDomains() != 0 {
		t.Fatal("teardown incomplete")
	}
}

func TestCloneRequiresRunningParent(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	parent, err := drv.Create("p", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PauseVM(parent); err != nil {
		t.Fatal(err)
	}
	// Paused parents are still Booted (frozen, not torn down); clone
	// is allowed. But a destroyed parent is not.
	if _, err := e.CloneVM(parent, "c"); err != nil {
		t.Fatalf("clone of paused parent: %v", err)
	}
	if err := e.UnpauseVM(parent); err != nil {
		t.Fatal(err)
	}
	if err := drv.Destroy(parent); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CloneVM(parent, "c2"); err == nil {
		t.Fatal("clone of destroyed parent accepted")
	}
	// Duplicate clone names rejected.
	p2, _ := drv.Create("p2", guest.Daytime())
	if _, err := e.CloneVM(p2, "c"); err == nil {
		t.Fatal("duplicate clone name accepted")
	}
}

func TestCloneFasterThanBootForHeavyGuests(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	parent, err := drv.Create("deb", guest.DebianMinimal())
	if err != nil {
		t.Fatal(err)
	}
	bootTotal := parent.CreateTime + parent.BootTime
	// Warm the snapshot.
	warm, err := e.CloneVM(parent, "warm")
	if err != nil {
		t.Fatal(err)
	}
	_ = warm
	clone, err := e.CloneVM(parent, "fast")
	if err != nil {
		t.Fatal(err)
	}
	// A Debian boot is ~2s; a warm clone must be orders of magnitude
	// faster (Potemkin's whole point).
	if clone.CreateTime*20 >= bootTotal {
		t.Fatalf("clone %v vs boot %v — not a big enough win", clone.CreateTime, bootTotal)
	}
}

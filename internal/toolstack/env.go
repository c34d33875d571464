// Package toolstack implements the virtualization control planes the
// paper compares (Fig. 9): stock xl/libxl, the lean chaos/libchaos
// replacement, the split toolstack with its pre-created domain-shell
// pool (§5.2), and their combinations with either the XenStore device
// path or noxs.
package toolstack

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lightvm/internal/console"
	"lightvm/internal/costs"
	"lightvm/internal/devd"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/noxs"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/trace"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// Mode selects one of the paper's toolstack configurations.
type Mode int

// The five configurations of Fig. 9.
const (
	// ModeXL is out-of-the-box Xen: xl/libxl, XenStore, bash hotplug.
	ModeXL Mode = iota
	// ModeChaosXS is chaos + XenStore + xendevd.
	ModeChaosXS
	// ModeChaosSplit is chaos + XenStore + split toolstack.
	ModeChaosSplit
	// ModeChaosNoXS is chaos + noxs (no XenStore).
	ModeChaosNoXS
	// ModeLightVM is the full system: chaos + noxs + split toolstack.
	ModeLightVM
)

var modeNames = [...]string{"xl", "chaos [XS]", "chaos [XS+split]", "chaos [NoXS]", "LightVM"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// UsesStore reports whether the mode's device path is the XenStore.
func (m Mode) UsesStore() bool { return m == ModeXL || m == ModeChaosXS || m == ModeChaosSplit }

// UsesSplit reports whether the mode takes shells from the pool.
func (m Mode) UsesSplit() bool { return m == ModeChaosSplit || m == ModeLightVM }

// Errors.
var (
	ErrDuplicateName = errors.New("toolstack: duplicate VM name")
	ErrUnknownVM     = errors.New("toolstack: unknown VM")
	ErrAlreadyPaused = errors.New("toolstack: VM already paused")
	ErrNotPaused     = errors.New("toolstack: VM not paused")
)

// Breakdown attributes creation time to the Fig. 5 categories.
type Breakdown struct {
	Config     time.Duration // parsing the configuration file
	Hypervisor time.Duration // domain/memory hypercalls
	XenStore   time.Duration // store interactions
	Devices    time.Duration // device creation (backends, hotplug)
	Load       time.Duration // kernel image parse + load
	Toolstack  time.Duration // internal state keeping
}

// Total sums all categories.
func (b Breakdown) Total() time.Duration {
	return b.Config + b.Hypervisor + b.XenStore + b.Devices + b.Load + b.Toolstack
}

// VM is a toolstack-managed guest.
type VM struct {
	Name  string
	Dom   *hv.Domain
	Image guest.Image
	Core  int
	Mode  Mode

	// Booted marks a guest whose OS finished booting.
	Booted bool
	// Paused marks a frozen guest (its idle load is already off the
	// scheduler).
	Paused bool

	// CreateTime / BootTime are the last measured durations.
	CreateTime time.Duration
	BootTime   time.Duration
	// LastBreakdown is the per-category split of CreateTime.
	LastBreakdown Breakdown
}

// Env bundles the Dom0 control-plane state shared by all drivers.
type Env struct {
	Clock *sim.Clock
	HV    *hv.Hypervisor
	Store *xenstore.Store
	Noxs  *noxs.Module
	Sched *sched.Sched

	Bridge  devd.PortAttacher
	Bash    *devd.BashScripts
	Xendevd *devd.Xendevd

	BackVif     *xenbus.Backend
	BackVbd     *xenbus.Backend
	BackConsole *xenbus.Backend

	Pool *Pool

	// MemDedup enables the §9 memory-sharing extension: unikernel
	// guests booted from the same image map its resident pages (and
	// half of their never-touched heap) from the hypervisor's share
	// pool instead of private memory.
	MemDedup bool

	// Faults, when non-nil, is the deterministic fault plane driving
	// this Dom0's injection sites (store conflicts/stalls, handshake
	// drops, pool-daemon crashes). Attach it with SetFaults; a nil
	// injector is inert and costs nothing.
	Faults *faults.Injector

	// Trace, when non-nil, records control-plane operations (the
	// chaos CLI's -trace flag; a nil log costs nothing).
	Trace *trace.Log

	// Console is the xenconsoled daemon draining guest console rings.
	Console *console.Daemon

	// LeaseCheck, when non-nil, arms the ownership fence (lease.go):
	// the cluster attaches a validator against its epoch table, and
	// destroy/migrate/scrub reject or reap domains whose recorded lease
	// epoch is stale. Nil (the default) disables fencing entirely.
	LeaseCheck LeaseChecker

	vms    map[string]*VM
	nextVM int

	// leases holds this Dom0's placement-epoch claims (lease.go);
	// staleRejected counts operations the fence turned away.
	leases        map[string]uint64
	staleRejected uint64

	// dom0Wake tracks aggregate guest wake rate for Dom0 dilation.
	dom0WakeRate float64

	// dead marks a host killed by a simulated whole-machine failure:
	// its frozen state is excluded from FsckTracked audits.
	dead bool

	// Memory-pressure episode state (pressure.go): how many pages the
	// simulated dom0 balloon is withholding and until when.
	pressurePages uint64
	pressureUntil sim.Time
}

// NewEnv wires a complete Dom0 on machine with hostMem bytes of RAM.
func NewEnv(clock *sim.Clock, machine sched.Machine) *Env {
	e := &Env{
		Clock: clock,
		HV:    hv.New(clock, uint64(machine.MemoryGB)<<30),
		Store: xenstore.New(clock),
		Sched: sched.New(machine),
		vms:   make(map[string]*VM),
	}
	e.Bridge = &devd.NullBridge{}
	e.Bash = &devd.BashScripts{Clock: clock, Bridge: e.Bridge}
	e.Xendevd = &devd.Xendevd{Clock: clock, Bridge: e.Bridge}
	e.Noxs = noxs.NewModule(e.HV, e.Xendevd)
	// Stock backends use the bash hotplug path; chaos swaps in
	// xendevd (§5.3). The vif backend's hotplug is chosen per driver
	// via SetVifHotplug.
	e.BackVif = xenbus.NewBackend(hv.DevVif, e.HV, e.Store, e.Bash)
	e.BackVbd = xenbus.NewBackend(hv.DevVbd, e.HV, e.Store, nil)
	e.BackConsole = xenbus.NewBackend(hv.DevConsole, e.HV, e.Store, nil)
	e.Pool = NewPool(e)
	e.Console = console.NewDaemon()
	// Dom0 daemons hold a couple of store connections.
	e.Store.Connections = 3
	trackEnv(e) // no-op unless the -fsck gate enabled tracking
	return e
}

// SetVifHotplug selects the hotplug mechanism for vif setup.
func (e *Env) SetVifHotplug(hp devd.Hotplug) { e.BackVif.Hotplug = hp }

// armVifFailover wraps xendevd in a failover shim on BOTH vif setup
// paths — the store backend and the noxs module — so that while the
// pool daemon is down after a crash, vif hotplug degrades to the
// stock bash scripts until the daemon restarts. Routing through the
// shim is cost-free while the daemon is up (it delegates straight to
// xendevd), so arming it never perturbs fault-free timelines.
func (e *Env) armVifFailover() {
	fo := &devd.Failover{Primary: e.Xendevd, Backup: e.Bash, Down: e.Pool.DaemonDown}
	e.SetVifHotplug(fo)
	e.Noxs.Hotplug = fo
}

// SetFaults attaches a fault injector to the environment and its
// store. If the vif hotplug path is currently xendevd, it gains the
// failover shim (see armVifFailover).
func (e *Env) SetFaults(in *faults.Injector) {
	e.Faults = in
	e.Store.Faults = in
	if hp, ok := e.BackVif.Hotplug.(*devd.Xendevd); in != nil && ok && hp == e.Xendevd {
		e.armVifFailover()
	}
}

// VM looks up a guest by name.
func (e *Env) VM(name string) (*VM, error) {
	vm, ok := e.vms[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVM, name)
	}
	return vm, nil
}

// VMs returns the number of tracked guests.
func (e *Env) VMs() int { return len(e.vms) }

// AllVMs returns every tracked guest sorted by name (xentop-style
// listings).
func (e *Env) AllVMs() []*VM {
	out := make([]*VM, 0, len(e.vms))
	for _, vm := range e.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// register adds a VM to the environment's tables.
func (e *Env) register(vm *VM) error {
	if _, dup := e.vms[vm.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateName, vm.Name)
	}
	e.vms[vm.Name] = vm
	return nil
}

// dom0Dilation is the slowdown toolstack work suffers from backend
// processing for all running guests' wakeups in Dom0.
func (e *Env) dom0Dilation() float64 {
	return 1 + e.dom0WakeRate*float64(costs.Dom0BackendWorkPerWake)/float64(time.Second)
}

// runDom0 executes fn, then charges the extra Dom0 time implied by
// backend interference, returning the total wall time.
func (e *Env) RunDom0(fn func()) time.Duration {
	start := e.Clock.Now()
	fn()
	raw := e.Clock.Now().Sub(start)
	extra := time.Duration(float64(raw) * (e.dom0Dilation() - 1))
	e.Clock.Sleep(extra)
	return raw + extra
}

// bootGuest performs the guest side of bringing a VM up: frontend
// negotiation (store or noxs), then the OS boot work on the VM's core
// (dilated by its neighbours), then idle-load registration.
func (e *Env) BootGuest(vm *VM) error {
	im := vm.Image
	if vm.Mode.UsesStore() {
		for i, dev := range im.Devices {
			if err := xenbus.ConnectFrontend(e.Store, e.HV, vm.Dom.ID, dev.Kind, i); err != nil {
				return fmt.Errorf("toolstack: boot %q: %w", vm.Name, err)
			}
		}
		// Linux guests chatter with the store while booting.
		for i := 0; i < im.StoreOpsBoot; i++ {
			_, _ = e.Store.Read(fmt.Sprintf("/local/domain/%d/name", vm.Dom.ID))
		}
		e.Store.Connections++
	} else {
		if err := e.Noxs.ConnectGuest(vm.Dom.ID); err != nil {
			return fmt.Errorf("toolstack: boot %q: %w", vm.Name, err)
		}
	}
	e.Sched.RunWork(e.Clock, vm.Core, im.BootWork)
	e.Sched.AddGuest(vm.Core, im.WakeRatePerSec, im.WakeWork, im.UtilDuty)
	e.dom0WakeRate += im.WakeRatePerSec
	vm.Booted = true
	e.Console.Attach(vm.Dom.ID)
	bus := "noxs"
	if vm.Mode.UsesStore() {
		bus = "xenbus"
	}
	_ = e.Console.Writef(vm.Dom.ID,
		"%s: booting %s (%s) on vcpu->core %d\n%s: %d device(s) connected via %s\n%s: ready in %v\n",
		vm.Name, im.Name, im.Kind, vm.Core,
		vm.Name, len(im.Devices), bus,
		vm.Name, e.Clock.Now())
	return nil
}

// unregisterRunning removes a booted guest's load and connections.
func (e *Env) UnregisterRunning(vm *VM) {
	if !vm.Booted {
		return
	}
	im := vm.Image
	if !vm.Paused { // a paused guest's load is already off the books
		e.Sched.RemoveGuest(vm.Core, im.WakeRatePerSec, im.WakeWork, im.UtilDuty)
		e.dom0WakeRate -= im.WakeRatePerSec
	}
	vm.Paused = false
	if vm.Mode.UsesStore() && e.Store.Connections > 0 {
		e.Store.Connections--
	}
	e.Console.Detach(vm.Dom.ID)
	vm.Booted = false
}

// forget drops the VM from the name table.
func (e *Env) forget(vm *VM) { delete(e.vms, vm.Name) }

// PauseVM deschedules a running guest (the §2 pause/unpause
// requirement — Amazon Lambda "freezes" idle instances): all state
// stays resident but the guest stops consuming CPU, so its background
// load disappears from the host.
func (e *Env) PauseVM(vm *VM) error {
	if vm.Paused {
		return fmt.Errorf("%w: %q", ErrAlreadyPaused, vm.Name)
	}
	if err := e.HV.Pause(vm.Dom.ID); err != nil {
		return err
	}
	im := vm.Image
	e.Sched.RemoveGuest(vm.Core, im.WakeRatePerSec, im.WakeWork, im.UtilDuty)
	e.dom0WakeRate -= im.WakeRatePerSec
	vm.Paused = true
	e.Clock.Sleep(costs.VMBootKick)
	e.Trace.Emit("toolstack", "pause", vm.Name, "", 0)
	return nil
}

// UnpauseVM thaws a paused guest: one hypercall and the scheduler
// takes it back — no boot, no device renegotiation.
func (e *Env) UnpauseVM(vm *VM) error {
	if !vm.Paused {
		return fmt.Errorf("%w: %q", ErrNotPaused, vm.Name)
	}
	if err := e.HV.Unpause(vm.Dom.ID); err != nil {
		return err
	}
	im := vm.Image
	e.Sched.AddGuest(vm.Core, im.WakeRatePerSec, im.WakeWork, im.UtilDuty)
	e.dom0WakeRate += im.WakeRatePerSec
	vm.Paused = false
	e.Trace.Emit("toolstack", "unpause", vm.Name, "", 0)
	return nil
}

// PopulateGuest populates a fresh domain's memory for an image. With
// MemDedup enabled, unikernel guests share the image-resident pages
// plus half of their (initially zero) heap; everything else is
// populated privately as on stock Xen. Under a memory-pressure
// episode (pressure.go) the share pool has no COW headroom left, so
// dedup'd populations fall back to private memory — and may then fail
// outright against the shrunken headroom.
func (e *Env) PopulateGuest(id hv.DomID, img guest.Image) error {
	e.memPressureGate(img)
	if e.MemDedup && !e.UnderMemPressure() &&
		img.Kind == guest.Unikernel && img.TotalSize() < img.MemBytes {
		shared := img.TotalSize() + (img.MemBytes-img.TotalSize())/2
		private := img.MemBytes - shared
		if private > 0 {
			if err := e.HV.PopulatePhysmap(id, private); err != nil {
				return err
			}
		}
		return e.HV.PopulateShared(id, "img:"+img.Name, shared)
	}
	return e.HV.PopulatePhysmap(id, img.MemBytes)
}

// BootResumed reattaches a restored/migrated guest: frontends
// reconnect and idle load is re-registered, but no OS boot happens —
// the guest resumes from its saved state.
func (e *Env) BootResumed(vm *VM) error {
	im := vm.Image
	if vm.Mode.UsesStore() {
		for i, dev := range im.Devices {
			if err := xenbus.ConnectFrontend(e.Store, e.HV, vm.Dom.ID, dev.Kind, i); err != nil {
				return fmt.Errorf("toolstack: resume %q: %w", vm.Name, err)
			}
		}
		e.Store.Connections++
	} else {
		if err := e.Noxs.ConnectGuest(vm.Dom.ID); err != nil {
			return fmt.Errorf("toolstack: resume %q: %w", vm.Name, err)
		}
	}
	e.Sched.AddGuest(vm.Core, im.WakeRatePerSec, im.WakeWork, im.UtilDuty)
	e.dom0WakeRate += im.WakeRatePerSec
	vm.Booted = true
	e.Console.Attach(vm.Dom.ID)
	_ = e.Console.Writef(vm.Dom.ID, "%s: resumed from saved state at %v\n", vm.Name, e.Clock.Now())
	return nil
}

// StoreDeviceCreate performs the XenStore device handshake for one
// device (used by restore and migration pre-creation).
func (e *Env) StoreDeviceCreate(vm *VM, idx int, kind hv.DevKind, mac string) error {
	req := xenbus.DeviceReq{Kind: kind, Dom: vm.Dom.ID, Idx: idx, MAC: mac}
	if err := e.Store.Txn(8, func(tx *xenstore.Tx) error {
		xenbus.WriteDeviceEntries(tx, req)
		return nil
	}); err != nil {
		return err
	}
	return xenbus.WaitBackendReady(e.Store, e.Clock, vm.Dom.ID, kind, idx)
}

// Register adds an externally constructed VM (restore/migration) to
// the environment's tables.
func (e *Env) Register(vm *VM) error { return e.register(vm) }

// Forget removes a VM from the name table (checkpoint/migration).
func (e *Env) Forget(vm *VM) { e.forget(vm) }

// Driver is a toolstack implementation.
type Driver interface {
	// Name identifies the configuration (Fig. 9 legend).
	Name() string
	// Create builds and boots a VM from image.
	Create(name string, img guest.Image) (*VM, error)
	// Destroy tears a VM down completely.
	Destroy(vm *VM) error
}

// ForMode returns the driver implementing a Fig. 9 configuration.
func (e *Env) ForMode(m Mode) Driver {
	switch m {
	case ModeXL:
		return NewXL(e)
	default:
		return NewChaos(e, m)
	}
}

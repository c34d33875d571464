package toolstack

import (
	"errors"
	"strconv"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// Chaos is LightVM's lean toolstack (libchaos + chaos command, §5.1):
// minimal config format, xendevd instead of hotplug scripts, far fewer
// store interactions — or none at all with noxs — and optionally the
// split toolstack's pre-created shells.
type Chaos struct {
	env  *Env
	mode Mode
}

// NewChaos returns a chaos driver in one of the non-xl modes.
func NewChaos(env *Env, mode Mode) *Chaos {
	if mode == ModeXL {
		panic("toolstack: NewChaos with ModeXL")
	}
	if env.Faults != nil {
		// Under the fault plane, vif setup degrades to bash scripts
		// while the pool daemon is down (SetFaults installs the same
		// shim if the injector is attached after the driver).
		env.armVifFailover()
	} else {
		env.SetVifHotplug(env.Xendevd)
	}
	return &Chaos{env: env, mode: mode}
}

// Name implements Driver.
func (c *Chaos) Name() string { return c.mode.String() }

// Mode reports the configuration.
func (c *Chaos) Mode() Mode { return c.mode }

// Create implements Driver.
func (c *Chaos) Create(name string, img guest.Image) (*VM, error) {
	e := c.env
	vm := &VM{Name: name, Image: img, Mode: c.mode}
	if err := e.register(vm); err != nil {
		return nil, err
	}
	var bd Breakdown
	var retErr error
	start := e.Clock.Now()

	e.RunDom0(func() {
		mark := func(dst *time.Duration, fn func()) {
			t0 := e.Clock.Now()
			fn()
			*dst += e.Clock.Now().Sub(t0)
		}

		mark(&bd.Config, func() { e.Clock.Sleep(costs.ConfigParseChaos) })
		// The intent journal goes where this mode keeps its truth: a
		// store node on the XS paths, the noxs module's kernel-side
		// table otherwise. Written before any durable state, updated
		// once the domain ID is known.
		us := c.mode.UsesStore()
		mark(&bd.Toolstack, func() { e.journalSet(us, name, journalOpCreate, "hv", 0) })
		if retErr = e.crashPoint("chaos.create.begin"); retErr != nil {
			return
		}
		mark(&bd.Toolstack, func() { e.Clock.Sleep(costs.ToolstackInternalChaos) })

		flavor := FlavorFor(img, us)
		if c.mode.UsesSplit() {
			// Execute phase on a pre-created shell.
			var shell *Shell
			mark(&bd.Toolstack, func() {
				shell = e.Pool.Take(flavor)
			})
			if shell == nil {
				// Pool miss: prepare inline, paying full price. Prepare
				// has its own crash points journaled under shell:<id>.
				mark(&bd.Hypervisor, func() {
					var err error
					shell, err = e.Pool.Prepare(flavor)
					if err != nil {
						retErr = err
					}
				})
				if retErr != nil {
					return
				}
			}
			vm.Dom, vm.Core = shell.Dom, shell.Core
			mark(&bd.Toolstack, func() { e.journalSet(us, name, journalOpCreate, "finalize", vm.Dom.ID) })
			mark(&bd.Devices, func() { retErr = e.Pool.finalizeDevices(shell, img) })
			if retErr != nil {
				return
			}
		} else {
			vm.Core = e.Sched.Place()
			mark(&bd.Hypervisor, func() {
				dom, err := e.HV.CreateDomain(hv.Config{
					MaxMem: img.MemBytes, VCPUs: 1, Cores: []int{vm.Core},
				})
				if err != nil {
					retErr = err
					return
				}
				vm.Dom = dom
				retErr = e.PopulateGuest(dom.ID, img)
			})
			if retErr != nil {
				return
			}
			mark(&bd.Toolstack, func() { e.journalSet(us, name, journalOpCreate, "devices", vm.Dom.ID) })
			if retErr = e.crashPoint("chaos.create.hv"); retErr != nil {
				return
			}
			mark(&bd.Devices, func() { retErr = c.createDevices(vm) })
			if retErr != nil {
				return
			}
		}
		if retErr = e.crashPoint("chaos.create.devices"); retErr != nil {
			return
		}

		if us {
			// chaos keeps only the handful of entries guests need.
			mark(&bd.XenStore, func() { retErr = e.storeQuotaGate(vm.Dom.ID, "chaos.create.store") })
			if retErr != nil {
				return
			}
			mark(&bd.XenStore, func() {
				domPath := xenbus.DomainPath(vm.Dom.ID)
				e.Store.Write(domPath+"/name", name)
				e.Store.Write(domPath+"/memory/target", strconv.FormatUint(img.MemBytes/1024, 10))
				e.Store.Write(domPath+"/console/port", "2")
			})
			if retErr = e.crashPoint("chaos.create.store"); retErr != nil {
				return
			}
		}

		mark(&bd.Load, func() {
			retErr = e.HV.LoadImage(vm.Dom.ID, img.Name, img.TotalSize())
		})
		if retErr != nil {
			return
		}
		mark(&bd.Hypervisor, func() { retErr = e.HV.Unpause(vm.Dom.ID) })
		if retErr != nil {
			return
		}
		retErr = e.crashPoint("chaos.create.finalize")
	})
	if retErr != nil {
		e.forget(vm)
		if errors.Is(retErr, ErrToolstackCrash) {
			// Process died mid-creation: partial state stays for recovery.
			return nil, retErr
		}
		if vm.Dom != nil {
			retErr = e.rollbackDomain(retErr, c.mode.UsesStore(), name, vm.Dom.ID)
		}
		e.journalClear(c.mode.UsesStore(), name)
		return nil, retErr
	}
	e.journalClear(c.mode.UsesStore(), name)
	vm.LastBreakdown = bd
	vm.CreateTime = e.Clock.Now().Sub(start)

	bootStart := e.Clock.Now()
	if err := e.BootGuest(vm); err != nil {
		_ = c.Destroy(vm)
		return nil, err
	}
	vm.BootTime = e.Clock.Now().Sub(bootStart)
	e.Trace.Emit("toolstack", "create", name, "mode="+c.mode.String(), vm.CreateTime+vm.BootTime)
	return vm, nil
}

// createDevices builds devices inline (non-split path).
func (c *Chaos) createDevices(vm *VM) error {
	e := c.env
	if c.mode.UsesStore() {
		for i, dev := range vm.Image.Devices {
			req := xenbus.DeviceReq{Kind: dev.Kind, Dom: vm.Dom.ID, Idx: i, MAC: dev.MAC}
			if err := e.Store.Txn(8, func(tx *xenstore.Tx) error {
				xenbus.WriteDeviceEntries(tx, req)
				return nil
			}); err != nil {
				return err
			}
			if err := xenbus.WaitBackendReady(e.Store, e.Clock, vm.Dom.ID, dev.Kind, i); err != nil {
				return err
			}
		}
		return nil
	}
	for i, dev := range vm.Image.Devices {
		if _, err := e.Noxs.CreateDevice(vm.Dom.ID, dev.Kind, i, dev.MAC); err != nil {
			return err
		}
	}
	// The sysctl power device replaces XenStore-based control.
	_, err := e.Noxs.CreateDevice(vm.Dom.ID, hv.DevSysctl, 0, "")
	return err
}

// Destroy implements Driver. As in xl, crash points sit after the
// guest is unregistered, and the destroy intent rolls forward on
// recovery.
func (c *Chaos) Destroy(vm *VM) error {
	e := c.env
	us := c.mode.UsesStore()
	var crashErr error
	e.RunDom0(func() {
		e.UnregisterRunning(vm)
		e.journalSet(us, vm.Name, journalOpDestroy, "devices", vm.Dom.ID)
		if crashErr = e.crashPoint("chaos.destroy.begin"); crashErr != nil {
			return
		}
		if us {
			for i, dev := range vm.Image.Devices {
				switch dev.Kind {
				case hv.DevVif:
					e.BackVif.Teardown(vm.Dom.ID, i)
				case hv.DevVbd:
					e.BackVbd.Teardown(vm.Dom.ID, i)
				case hv.DevConsole:
					e.BackConsole.Teardown(vm.Dom.ID, i)
				}
				xenbus.RemoveDeviceEntries(e.Store, vm.Dom.ID, dev.Kind, i)
			}
			if crashErr = e.crashPoint("chaos.destroy.devices"); crashErr != nil {
				return
			}
			_ = e.Store.Rm(xenbus.DomainPath(vm.Dom.ID))
		} else {
			e.Noxs.DestroyAll(vm.Dom.ID)
			if crashErr = e.crashPoint("chaos.destroy.devices"); crashErr != nil {
				return
			}
		}
		e.Clock.Sleep(costs.ToolstackInternalChaos)
	})
	e.forget(vm)
	if crashErr != nil {
		return crashErr
	}
	if crashErr = e.crashPoint("chaos.destroy.hv"); crashErr != nil {
		return crashErr
	}
	err := e.HV.DestroyDomain(vm.Dom.ID)
	e.journalClear(us, vm.Name)
	e.Trace.Emit("toolstack", "destroy", vm.Name, "mode="+c.mode.String(), 0)
	return err
}

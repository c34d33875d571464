package toolstack

import (
	"errors"
	"path"
	"time"

	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// The device lifecycle every guest operation shares. How a device
// reaches a guest is the paper's central design decision — the
// XenStore split-driver handshake of stock Xen (Fig. 7a) or the noxs
// device page written by hypercalls (Fig. 7b) — and it is taken here
// once: create, clone, shell prepare, restore and migration attach
// through AttachDevices (xl through its per-device half, to keep
// libxl's verify reads between handshakes); destroy, pool reaps and
// migration rollback detach through detachDevices; every failed build
// unwinds through AbortCreate.

// backendFor maps a device kind to its Dom0 backend.
func (e *Env) backendFor(kind hv.DevKind) *xenbus.Backend {
	switch kind {
	case hv.DevVif:
		return e.BackVif
	case hv.DevVbd:
		return e.BackVbd
	default:
		return e.BackConsole
	}
}

// attachDevice runs the Fig. 7a handshake for one device: the
// toolstack's frontend and backend entries in one transaction, then
// the wait for the backend (and its hotplug script) to answer.
func (e *Env) attachDevice(dom hv.DomID, kind hv.DevKind, idx int, mac string) error {
	req := xenbus.DeviceReq{Kind: kind, Dom: dom, Idx: idx, MAC: mac}
	if err := e.Store.Txn(8, func(tx *xenstore.Tx) error {
		xenbus.WriteDeviceEntries(tx, req)
		return nil
	}); err != nil {
		return err
	}
	return xenbus.WaitBackendReady(e.Store, e.Clock, dom, kind, idx)
}

// AttachDevices builds devs for dom on the chosen device path: the
// store handshake device by device, or one noxs device-page entry each
// followed by the sysctl power device that replaces XenStore-based
// control (§5.1).
func (e *Env) AttachDevices(dom hv.DomID, store bool, devs []guest.DeviceSpec) error {
	if store {
		for i, dev := range devs {
			if err := e.attachDevice(dom, dev.Kind, i, dev.MAC); err != nil {
				return err
			}
		}
		return nil
	}
	for i, dev := range devs {
		if _, err := e.Noxs.CreateDevice(dom, dev.Kind, i, dev.MAC); err != nil {
			return err
		}
	}
	_, err := e.Noxs.CreateDevice(dom, hv.DevSysctl, 0, "")
	return err
}

// detachDevices undoes AttachDevices: per device the backend's
// teardown and the toolstack's store entries, or every device-page
// entry in one noxs call. The domain's registry subtree is the
// caller's, because destroy crashes between the two.
func (e *Env) detachDevices(dom hv.DomID, store bool, devs []guest.DeviceSpec) {
	if !store {
		e.Noxs.DestroyAll(dom)
		return
	}
	for i, dev := range devs {
		e.backendFor(dev.Kind).Teardown(dom, i)
		xenbus.RemoveDeviceEntries(e.Store, dom, dev.Kind, i)
	}
}

// DiscardShell tears down a domain that holds no running guest — a
// reaped pool shell, a rolled-back migration target — leaving the
// store as it was before the domain was built: devices, then on the
// store path the per-domain backend parents and the registry subtree,
// then the domain itself.
func (e *Env) DiscardShell(dom hv.DomID, store bool, devs []guest.DeviceSpec) error {
	e.detachDevices(dom, store, devs)
	if store {
		for i, dev := range devs {
			_ = e.Store.Rm(path.Dir(xenbus.BackendPath(dom, dev.Kind, i)))
		}
		_ = e.Store.Rm(xenbus.DomainPath(dom))
	}
	return e.HV.DestroyDomain(dom)
}

// AbortCreate is the failure epilogue of every operation that builds a
// guest (create, clone, restore, migration pre-creation): vm leaves
// the name table and, unless the toolstack itself crashed, everything
// built so far is reaped exactly as the scrubber would reap it. It
// returns the error to report, with any rollback failure joined on.
func (e *Env) AbortCreate(vm *VM, err error) error {
	e.forget(vm)
	if errors.Is(err, ErrToolstackCrash) {
		// The toolstack process died mid-creation: no rollback runs,
		// and whatever was built so far stays for scrub/recovery.
		return err
	}
	us := vm.Mode.UsesStore()
	if vm.Dom != nil {
		err = e.rollbackDomain(err, us, vm.Name, vm.Dom.ID)
	}
	e.journalClear(us, vm.Name)
	return err
}

// mark runs fn and adds the virtual time it took to *dst: the Fig. 5
// attribution of a create's steps.
func (e *Env) mark(dst *time.Duration, fn func()) {
	t0 := e.Clock.Now()
	fn()
	*dst += e.Clock.Now().Sub(t0)
}

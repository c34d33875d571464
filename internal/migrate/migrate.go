// Package migrate implements checkpointing (save/restore, Fig. 12) and
// live migration (Fig. 13) for both control planes:
//
//   - XenStore path: xl-style, suspending through a control/shutdown
//     store handshake and carrying libxc/libxl fixed costs;
//   - noxs path: LightVM's sysctl split device flips a field in the
//     shared page and kicks an event channel, "chaos opens a TCP
//     connection to a migration daemon running on the remote host and
//     sends the guest's configuration so that the daemon pre-creates
//     the domain and creates the devices" (§5.1).
//
// Checkpoints carry a real serialized descriptor (a hand-rolled
// varint format, like the store snapshot codec — the save/restore hot
// path of Fig. 12 cannot afford gob's per-stream type compilation);
// guest page contents are charged by size rather than copied.
package migrate

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"path"
	"strconv"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/toolstack"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// Errors.
var (
	// ErrBadCheckpoint marks a checkpoint whose blob fails to decode or
	// whose descriptor disagrees with its envelope (corruption or
	// truncation in storage/transit).
	ErrBadCheckpoint = errors.New("migrate: bad checkpoint")
	// ErrMigrationAborted marks a migration that was rolled back: the
	// source VM is running again and the destination shell was reaped.
	ErrMigrationAborted = errors.New("migrate: migration aborted")
)

// StreamResumes bounds stream-resume attempts on the noxs path
// before a migration gives up and rolls back.
const StreamResumes = 3

// Checkpoint is a saved guest.
type Checkpoint struct {
	Name     string
	Image    guest.Image
	Mode     toolstack.Mode
	MemBytes uint64

	// Blob is the serialized descriptor (what libxc would stream).
	Blob []byte

	// StoreState is the guest's control-plane registry — the serialized
	// O(1) snapshot of its /local/domain/<id> subtree — for store-backed
	// modes (nil on the noxs path, which has no store). Restore grafts
	// it back under the new domain id by structural sharing.
	StoreState []byte
}

// descriptor is the decoded wire format.
type descriptor struct {
	Name      string
	ImageName string
	Kind      guest.Kind
	MemBytes  uint64
	Devices   []hv.DevKind
	MACs      []string
}

// descMagic versions the descriptor wire format. The encoding is a
// flat sequence of uvarints and length-prefixed strings: name, image
// name, kind, memory size, then a device count followed by one
// (kind, MAC) pair per device. Every varint is minimal, so the format
// is canonical and a round trip is byte-stable.
const descMagic = "xdesc1\n"

// appendStr writes a length-prefixed string.
func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encode builds the wire blob for a VM. The error return is kept for
// call-site symmetry with decode; the encoder itself cannot fail.
func encode(vm *toolstack.VM) ([]byte, error) {
	img := vm.Image
	size := len(descMagic) + len(vm.Name) + len(img.Name) + 32
	for _, dev := range img.Devices {
		size += len(dev.MAC) + 4
	}
	buf := make([]byte, 0, size)
	buf = append(buf, descMagic...)
	buf = appendStr(buf, vm.Name)
	buf = appendStr(buf, img.Name)
	buf = binary.AppendUvarint(buf, uint64(img.Kind))
	buf = binary.AppendUvarint(buf, img.MemBytes)
	buf = binary.AppendUvarint(buf, uint64(len(img.Devices)))
	for _, dev := range img.Devices {
		buf = binary.AppendUvarint(buf, uint64(dev.Kind))
		buf = appendStr(buf, dev.MAC)
	}
	return buf, nil
}

// descReader is a bounds-checked cursor over a descriptor blob.
type descReader struct {
	data []byte
	off  int
}

// uvarint reads a minimally-encoded varint.
func (r *descReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at %d", ErrBadCheckpoint, r.off)
	}
	if n > 1 && r.data[r.off+n-1] == 0 {
		return 0, fmt.Errorf("%w: non-minimal varint at %d", ErrBadCheckpoint, r.off)
	}
	r.off += n
	return v, nil
}

// str reads a length-prefixed string.
func (r *descReader) str() (string, error) {
	l, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if l > uint64(len(r.data)-r.off) {
		return "", fmt.Errorf("%w: string length %d overruns input", ErrBadCheckpoint, l)
	}
	s := string(r.data[r.off : r.off+int(l)])
	r.off += int(l)
	return s, nil
}

// decode parses a wire blob.
func decode(blob []byte) (descriptor, error) {
	var d descriptor
	if len(blob) < len(descMagic) || string(blob[:len(descMagic)]) != descMagic {
		return d, fmt.Errorf("%w: decode: bad magic", ErrBadCheckpoint)
	}
	r := &descReader{data: blob, off: len(descMagic)}
	var err error
	if d.Name, err = r.str(); err != nil {
		return d, err
	}
	if d.ImageName, err = r.str(); err != nil {
		return d, err
	}
	kind, err := r.uvarint()
	if err != nil {
		return d, err
	}
	d.Kind = guest.Kind(kind)
	if d.MemBytes, err = r.uvarint(); err != nil {
		return d, err
	}
	ndev, err := r.uvarint()
	if err != nil {
		return d, err
	}
	// Each device costs at least two bytes on the wire, so the count
	// is bounded by the remaining input (rejects absurd allocations).
	if ndev > uint64(len(blob)-r.off) {
		return d, fmt.Errorf("%w: device count %d overruns input", ErrBadCheckpoint, ndev)
	}
	if ndev > 0 {
		d.Devices = make([]hv.DevKind, 0, ndev)
		d.MACs = make([]string, 0, ndev)
	}
	for i := uint64(0); i < ndev; i++ {
		k, err := r.uvarint()
		if err != nil {
			return d, err
		}
		mac, err := r.str()
		if err != nil {
			return d, err
		}
		d.Devices = append(d.Devices, hv.DevKind(k))
		d.MACs = append(d.MACs, mac)
	}
	if r.off != len(blob) {
		return d, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(blob)-r.off)
	}
	return d, nil
}

// suspend quiesces a running guest through the mode's control channel.
func suspend(e *toolstack.Env, vm *toolstack.VM) error {
	if vm.Mode.UsesStore() {
		// xl: write control/shutdown=suspend, wait for the guest to
		// acknowledge via the store.
		domPath := xenbus.DomainPath(vm.Dom.ID)
		e.Store.Write(domPath+"/control/shutdown", "suspend")
		e.Clock.Sleep(costs.SuspendHandshakeXS)
		_, _ = e.Store.Read(domPath + "/control/shutdown")
		return e.HV.Suspend(vm.Dom.ID, "suspend")
	}
	return e.Noxs.RequestShutdown(vm.Dom.ID, "suspend")
}

// dumpCost charges serializing the guest's pages.
func dumpCost(e *toolstack.Env, memBytes uint64) {
	mb := float64(memBytes) / (1 << 20)
	e.Clock.Sleep(time.Duration(mb * float64(costs.MemDumpPerMB)))
}

// loadCost charges restoring the guest's pages.
func loadCost(e *toolstack.Env, memBytes uint64) {
	mb := float64(memBytes) / (1 << 20)
	e.Clock.Sleep(time.Duration(mb * float64(costs.MemLoadPerMB)))
}

// Save checkpoints vm to an in-memory image and destroys the running
// instance, returning the checkpoint and the measured save time.
func Save(e *toolstack.Env, vm *toolstack.VM) (*Checkpoint, time.Duration, error) {
	start := e.Clock.Now()
	var cp *Checkpoint
	var retErr error
	e.RunDom0(func() {
		if err := suspend(e, vm); err != nil {
			retErr = err
			return
		}
		if vm.Mode == toolstack.ModeXL {
			e.Clock.Sleep(costs.XLSaveFixed)
		}
		blob, err := encode(vm)
		if err != nil {
			retErr = err
			return
		}
		var storeState []byte
		if vm.Mode.UsesStore() {
			// Capture the guest's registry subtree from an O(1) store
			// snapshot: one flat charge regardless of how many guests
			// populate the store (the old alternative — reading the
			// subtree entry by entry — would cost a protocol round trip
			// per node). SerializeSubtree keeps no reference to the
			// tree, so the capture doesn't suppress node-pool recycling
			// the way a long-lived Snapshot would.
			e.Clock.Sleep(costs.CostStoreSnapshot)
			state, err := e.Store.SerializeSubtree(xenbus.DomainPath(vm.Dom.ID))
			if err != nil {
				retErr = fmt.Errorf("migrate: save %q: %w", vm.Name, err)
				return
			}
			storeState = state
		}
		dumpCost(e, vm.Image.MemBytes)
		cp = &Checkpoint{
			Name: vm.Name, Image: vm.Image, Mode: vm.Mode,
			MemBytes: vm.Image.MemBytes, Blob: blob, StoreState: storeState,
		}
	})
	if retErr != nil {
		return nil, 0, retErr
	}
	// The save completes when the checkpoint is durable; the remaining
	// teardown of the suspended instance happens after the measurement
	// window (it is asynchronous on real hosts, but still charged to
	// the clock).
	saveTime := time.Duration(e.Clock.Now().Sub(start))
	e.RunDom0(func() {
		e.UnregisterRunning(vm)
		if vm.Mode.UsesStore() {
			for i, dev := range vm.Image.Devices {
				xenbus.RemoveDeviceEntries(e.Store, vm.Dom.ID, dev.Kind, i)
			}
			_ = e.Store.Rm(xenbus.DomainPath(vm.Dom.ID))
		} else {
			e.Noxs.DestroyAll(vm.Dom.ID)
		}
		retErr = e.HV.DestroyDomain(vm.Dom.ID)
	})
	if retErr != nil {
		return nil, 0, retErr
	}
	e.Forget(vm)
	e.Trace.Emit("migrate", "save", vm.Name, "mode="+vm.Mode.String(), saveTime)
	return cp, saveTime, nil
}

// Restore brings a checkpoint back as a running VM on e, returning the
// new VM and the measured restore time.
func Restore(e *toolstack.Env, cp *Checkpoint) (*toolstack.VM, time.Duration, error) {
	start := e.Clock.Now()
	desc, err := decode(cp.Blob)
	if err != nil {
		return nil, 0, err
	}
	if desc.Name != cp.Name || desc.MemBytes != cp.MemBytes {
		return nil, 0, fmt.Errorf("%w: descriptor mismatch for %q", ErrBadCheckpoint, cp.Name)
	}
	// Store-backed checkpoints carry the guest's frozen registry; the
	// descriptor's devices must have their handshake entries in it, or
	// the checkpoint was truncated or tampered with.
	var storeSnap *xenstore.Snapshot
	if cp.Mode.UsesStore() {
		storeSnap, err = xenstore.DeserializeSnapshot(cp.StoreState)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %q store state: %v", ErrBadCheckpoint, cp.Name, err)
		}
		for i, k := range desc.Devices {
			if !storeSnap.Exists("/device/" + xenbus.KindName(k) + "/" + strconv.Itoa(i)) {
				return nil, 0, fmt.Errorf("%w: %q device %s/%d missing from captured registry",
					ErrBadCheckpoint, cp.Name, k, i)
			}
		}
	}
	vm := &toolstack.VM{Name: cp.Name, Image: cp.Image, Mode: cp.Mode, Core: e.Sched.Place()}
	if err := e.Register(vm); err != nil {
		return nil, 0, err
	}
	var retErr error
	e.RunDom0(func() {
		if cp.Mode == toolstack.ModeXL {
			e.Clock.Sleep(costs.XLRestoreFixed)
		} else {
			e.Clock.Sleep(costs.ToolstackInternalChaos)
		}
		dom, err := e.HV.CreateDomain(hv.Config{
			MaxMem: cp.MemBytes, VCPUs: 1, Cores: []int{vm.Core},
		})
		if err != nil {
			retErr = err
			return
		}
		vm.Dom = dom
		if err := e.PopulateGuest(dom.ID, cp.Image); err != nil {
			retErr = err
			return
		}
		loadCost(e, cp.MemBytes)
		if storeSnap != nil {
			// Graft the frozen registry under the new domain id: one
			// store op, structural sharing — the restored guest's
			// name/memory/control entries come back without a write per
			// node. Device entries are re-negotiated below (fresh event
			// channels and grants), overwriting the captured handshake
			// state in place.
			retErr = e.Store.GraftSnapshot(storeSnap, "/", xenbus.DomainPath(dom.ID))
			if retErr != nil {
				return
			}
		}
		retErr = recreateDevices(e, vm)
		if retErr != nil {
			return
		}
		dom.State = hv.StateSuspended // restored image resumes, not boots
		retErr = e.HV.Unpause(dom.ID)
	})
	if retErr != nil {
		e.Forget(vm)
		if vm.Dom != nil {
			_ = e.HV.DestroyDomain(vm.Dom.ID)
		}
		return nil, 0, retErr
	}
	// Guest side: reconnect frontends (no OS boot — state is resumed).
	if err := reconnect(e, vm); err != nil {
		return nil, 0, err
	}
	restoreTime := time.Duration(e.Clock.Now().Sub(start))
	e.Trace.Emit("migrate", "restore", vm.Name, "mode="+vm.Mode.String(), restoreTime)
	return vm, restoreTime, nil
}

// recreateDevices rebuilds the devices on the restore/migration target.
func recreateDevices(e *toolstack.Env, vm *toolstack.VM) error {
	if vm.Mode.UsesStore() {
		for i, dev := range vm.Image.Devices {
			req := struct {
				Kind hv.DevKind
				MAC  string
			}{dev.Kind, dev.MAC}
			if err := writeStoreDevice(e, vm, i, req.Kind, req.MAC); err != nil {
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
	_, err := e.Noxs.CreateDevice(vm.Dom.ID, hv.DevSysctl, 0, "")
	return err
}

// reconnect performs the guest-side frontend reattach after resume and
// re-registers the guest's load.
func reconnect(e *toolstack.Env, vm *toolstack.VM) error {
	return e.BootResumed(vm)
}

// StreamCost is the control-network time to ship a checkpoint between
// hosts: the migration TCP setup, the guest's pages at the libxc wire
// rate, and a closing control round-trip. The sharded cluster uses it
// as the cross-shard message delay between Save on the source's
// timeline and Restore on the destination's — live migration
// decomposed into logical-process messages instead of a function call
// across a shared clock (which Migrate below still requires).
func StreamCost(cp *Checkpoint) time.Duration {
	mb := float64(cp.MemBytes) / (1 << 20)
	wire := time.Duration(mb / costs.MigrationWireMBps * float64(time.Second))
	return costs.MigrationTCPSetup + wire + costs.MigrationRTT
}

// Migrate moves vm from src to dst over the control network:
// pre-create on the target, suspend, transfer, resume, destroy the
// source. It returns the new VM on dst and the total migration time.
func Migrate(src, dst *toolstack.Env, vm *toolstack.VM) (*toolstack.VM, time.Duration, error) {
	start := src.Clock.Now()
	// dst runs on the same virtual clock in these experiments.
	if src.Clock != dst.Clock {
		return nil, 0, fmt.Errorf("migrate: source and target must share a clock")
	}
	// Ownership fence: a source whose lease epoch is stale no longer
	// owns the domain (it was failed over) and must not ship it.
	if err := src.CheckLease(vm.Name); err != nil {
		return nil, 0, err
	}
	// The target host runs the same toolstack configuration; this also
	// selects the right hotplug mechanism for pre-created devices.
	_ = dst.ForMode(vm.Mode)

	// 1. Control connection + config transfer; the remote daemon
	// pre-creates the domain and its devices.
	src.Clock.Sleep(costs.MigrationTCPSetup + costs.MigrationRTT)
	blob, err := encode(vm)
	if err != nil {
		return nil, 0, err
	}
	desc, err := decode(blob)
	if err != nil {
		return nil, 0, err
	}
	newVM := &toolstack.VM{Name: desc.Name, Image: vm.Image, Mode: vm.Mode, Core: dst.Sched.Place()}
	if err := dst.Register(newVM); err != nil {
		return nil, 0, err
	}
	var preErr error
	dst.RunDom0(func() {
		dom, err := dst.HV.CreateDomain(hv.Config{
			MaxMem: desc.MemBytes, VCPUs: 1, Cores: []int{newVM.Core},
		})
		if err != nil {
			preErr = err
			return
		}
		newVM.Dom = dom
		if err := dst.PopulateGuest(dom.ID, vm.Image); err != nil {
			preErr = err
			return
		}
		preErr = recreateDevices(dst, newVM)
	})
	if preErr != nil {
		dst.Forget(newVM)
		if newVM.Dom != nil {
			_ = dst.HV.DestroyDomain(newVM.Dom.ID)
		}
		return nil, 0, preErr
	}

	// 2. Suspend the source guest.
	var susErr error
	src.RunDom0(func() { susErr = suspend(src, vm) })
	if susErr != nil {
		return nil, 0, susErr
	}

	// 3. Stream the guest pages over the wire (libxc code path). An
	// injected stream drop charges the partial transfer already sent;
	// chaos's migration daemon (noxs path) resumes from the last
	// acknowledged chunk, while the xl stream has no resume protocol —
	// a drop there, or exhausting the resume budget, rolls the
	// migration back: destination shell reaped, source VM resumed.
	mb := float64(vm.Image.MemBytes) / (1 << 20)
	wire := time.Duration(mb / costs.MigrationWireMBps * float64(time.Second))
	remaining := wire
	for attempt := 0; ; attempt++ {
		if src.Faults.Fire(faults.KindMigrationDrop) {
			part := time.Duration(float64(remaining) * src.Faults.Fraction(faults.KindMigrationDrop))
			src.Clock.Sleep(part + costs.MigrationRTT)
			if vm.Mode.UsesStore() || attempt >= StreamResumes {
				rollback(src, dst, vm, newVM)
				return nil, 0, fmt.Errorf("%w: %q: stream dropped on attempt %d",
					ErrMigrationAborted, vm.Name, attempt+1)
			}
			remaining -= part
			src.Clock.Sleep(costs.MigrationResumeSetup + costs.MigrationRTT)
			continue
		}
		src.Clock.Sleep(remaining + costs.MigrationRTT)
		break
	}

	// 4. Resume on the target.
	newVM.Dom.State = hv.StateSuspended
	if err := dst.HV.Unpause(newVM.Dom.ID); err != nil {
		return nil, 0, err
	}
	if err := dst.BootResumed(newVM); err != nil {
		return nil, 0, err
	}

	// 5. Tear down the source instance (device destruction is where
	// noxs pays its unoptimized-teardown penalty, §6.2).
	var downErr error
	src.RunDom0(func() {
		src.UnregisterRunning(vm)
		if vm.Mode.UsesStore() {
			for i, dev := range vm.Image.Devices {
				xenbus.RemoveDeviceEntries(src.Store, vm.Dom.ID, dev.Kind, i)
			}
			_ = src.Store.Rm(xenbus.DomainPath(vm.Dom.ID))
		} else {
			src.Noxs.DestroyAll(vm.Dom.ID)
		}
		downErr = src.HV.DestroyDomain(vm.Dom.ID)
	})
	if downErr != nil {
		return nil, 0, downErr
	}
	src.Forget(vm)
	migTime := time.Duration(src.Clock.Now().Sub(start))
	src.Trace.Emit("migrate", "migrate", vm.Name, "mode="+vm.Mode.String(), migTime)
	return newVM, migTime, nil
}

// rollback aborts a migration after the destination was pre-created:
// the destination's shell (devices, store subtree, domain) is reaped
// and the suspended source guest is resumed in place — its scheduler
// load and frontends were never unregistered, so one unpause brings it
// back.
func rollback(src, dst *toolstack.Env, vm, newVM *toolstack.VM) {
	dst.RunDom0(func() {
		if newVM.Mode.UsesStore() {
			for i, dev := range newVM.Image.Devices {
				switch dev.Kind {
				case hv.DevVif:
					dst.BackVif.Teardown(newVM.Dom.ID, i)
				case hv.DevVbd:
					dst.BackVbd.Teardown(newVM.Dom.ID, i)
				case hv.DevConsole:
					dst.BackConsole.Teardown(newVM.Dom.ID, i)
				}
				xenbus.RemoveDeviceEntries(dst.Store, newVM.Dom.ID, dev.Kind, i)
			}
			// Also reap the per-domain backend parents, so the store is
			// exactly as it was before the aborted pre-creation.
			for i, dev := range newVM.Image.Devices {
				_ = dst.Store.Rm(path.Dir(xenbus.BackendPath(newVM.Dom.ID, dev.Kind, i)))
			}
			_ = dst.Store.Rm(xenbus.DomainPath(newVM.Dom.ID))
		} else {
			dst.Noxs.DestroyAll(newVM.Dom.ID)
		}
		_ = dst.HV.DestroyDomain(newVM.Dom.ID)
	})
	dst.Forget(newVM)
	src.RunDom0(func() {
		src.Clock.Sleep(costs.MigrationRollback)
		_ = src.HV.Unpause(vm.Dom.ID)
	})
	src.Trace.Emit("migrate", "rollback", vm.Name, "mode="+vm.Mode.String(), 0)
}

// writeStoreDevice writes the device's store entries and completes the
// backend handshake on the restore path.
func writeStoreDevice(e *toolstack.Env, vm *toolstack.VM, idx int, kind hv.DevKind, mac string) error {
	return e.StoreDeviceCreate(vm, idx, kind, mac)
}

// Marshal serializes the whole checkpoint (descriptor blob plus
// metadata) for storage or shipping to another host.
func (cp *Checkpoint) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("migrate: marshal checkpoint %q: %w", cp.Name, err)
	}
	return buf.Bytes(), nil
}

// UnmarshalCheckpoint parses a checkpoint serialized with Marshal.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("migrate: unmarshal checkpoint: %w", err)
	}
	// Integrity: the inner descriptor must agree with the envelope.
	d, err := decode(cp.Blob)
	if err != nil {
		return nil, err
	}
	if d.Name != cp.Name || d.MemBytes != cp.MemBytes {
		return nil, fmt.Errorf("%w: %q fails integrity check", ErrBadCheckpoint, cp.Name)
	}
	if cp.Mode.UsesStore() {
		if _, err := xenstore.DeserializeSnapshot(cp.StoreState); err != nil {
			return nil, fmt.Errorf("%w: %q store state: %v", ErrBadCheckpoint, cp.Name, err)
		}
	}
	return &cp, nil
}

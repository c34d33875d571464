package toolstack

import (
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// Flavor identifies a class of pre-creatable domain shells: the image
// (for memory size and — with dedup — the shared region), device set,
// and device path. VMs of the same flavor can share a shell, "similar
// to OpenStack's flavors" (§5.2).
type Flavor struct {
	Img     guest.Image
	Store   bool // devices via XenStore (true) or noxs (false)
	Devices []guest.DeviceSpec
}

// key folds a flavor to a map key (device kinds matter, MACs don't):
// "<image>/<mem bytes>/<store>" plus "/<kind>" per device.
func (f Flavor) key() string {
	var buf [keyBufLen]byte
	return string(f.appendKey(buf[:0]))
}

// keyBufLen sizes the stack buffer a key is built in; longer keys
// still work, they just spill to the heap.
const keyBufLen = 64

// appendKey appends f's key to b.
func (f Flavor) appendKey(b []byte) []byte {
	b = append(b, f.Img.Name...)
	b = append(b, '/')
	b = strconv.AppendUint(b, f.Img.MemBytes, 10)
	b = append(b, '/')
	b = strconv.AppendBool(b, f.Store)
	for _, d := range f.Devices {
		b = append(b, '/')
		b = append(b, d.Kind.String()...)
	}
	return b
}

// FlavorFor derives the shell flavor for an image under a device path.
func FlavorFor(img guest.Image, store bool) Flavor {
	devs := make([]guest.DeviceSpec, len(img.Devices))
	copy(devs, img.Devices)
	if !store {
		// noxs guests always carry the sysctl power device (§5.1).
		devs = append(devs, guest.DeviceSpec{Kind: hv.DevSysctl})
	}
	return Flavor{Img: img, Store: store, Devices: devs}
}

// Shell is a pre-created domain: hypervisor reservation done, memory
// populated, devices pre-created — everything from Fig. 8's prepare
// phase. The execute phase only parses config, finalizes devices,
// builds the image and boots.
type Shell struct {
	Dom    *hv.Domain
	Core   int
	Flavor Flavor
}

// stock is one flavor's slot in the pool: the flavor Replenish keeps
// stocked (the latest one taken or registered under key) and its
// ready shells, oldest first.
type stock struct {
	key    string
	flavor Flavor
	shells []*Shell
}

// PoolStats reports pool behaviour for tests and benchmarks.
type PoolStats struct {
	Prepared int // shells built by the daemon
	Taken    int // shells handed to the execute phase
	Misses   int // Take calls that found the pool empty
	Crashes  int // injected daemon crashes (pool drained each time)
}

// Pool is the chaos daemon's shell pool: "the daemon ensures that
// there is always a certain (configurable) number of shells available
// in the system" (§5.2). Replenish is the daemon's background beat;
// the experiment harness invokes it between measured creations, which
// is exactly when the real daemon gets the CPU.
type Pool struct {
	env    *Env
	target int

	// mu serializes the daemon's work: Take/Prepare/Replenish (and the
	// shell/flavor/Stats state they touch) run one at a time, exactly
	// like the single-threaded chaos daemon. The environment's clock is
	// only ever advanced under mu on these paths, which is what makes
	// concurrent callers -race-clean.
	mu     sync.Mutex
	stocks map[string]*stock
	order  []*stock // sorted by key: the replenish and reap order
	Stats  PoolStats

	// downUntil is when the restarted daemon comes back after an
	// injected crash; until then Take misses and Replenish is a no-op,
	// so creations fall back to the inline (cold) prepare path. It is
	// an atomic (not mu-guarded) because DaemonDown is consulted from
	// inside reap/prepare work that already holds mu — the hotplug
	// failover shim reads it mid-teardown — and must stay lock-free.
	downUntil atomic.Int64
}

// NewPool creates an empty pool with a default target depth of 8.
func NewPool(env *Env) *Pool {
	return &Pool{env: env, target: 8, stocks: make(map[string]*stock)}
}

// lookup returns f's stock, or nil if the flavor was never registered.
// The key is built on the stack, so a hit does not allocate. Caller
// holds mu.
func (p *Pool) lookup(f Flavor) *stock {
	var buf [keyBufLen]byte
	return p.stocks[string(f.appendKey(buf[:0]))]
}

// register records f as its key's flavor, adding the stock in key
// order on first sight. Caller holds mu.
func (p *Pool) register(f Flavor) *stock {
	st := p.lookup(f)
	if st == nil {
		st = &stock{key: f.key()}
		p.stocks[st.key] = st
		i := sort.Search(len(p.order), func(i int) bool { return p.order[i].key >= st.key })
		p.order = slices.Insert(p.order, i, st)
	}
	st.flavor = f
	return st
}

// SetTarget configures the per-flavor shell depth. Negative depths
// clamp to zero. Takes mu: the autoscaler retargets the pool while
// Take/Replenish run from serving workers, and an unguarded write here
// would race the daemon's `len(shells) < target` refill loop.
func (p *Pool) SetTarget(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	p.target = n
	p.mu.Unlock()
}

// Target reports the configured per-flavor shell depth.
func (p *Pool) Target() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

// Available reports ready shells for a flavor.
func (p *Pool) Available(f Flavor) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.lookup(f); st != nil {
		return len(st.shells)
	}
	return 0
}

// ShellDomIDs lists the domains backing every pooled shell, sorted.
// The scrubber and the invariant checker cross-reference it: pooled
// shells are live control-plane state, not orphans.
func (p *Pool) ShellDomIDs() []hv.DomID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []hv.DomID
	for _, st := range p.order {
		for _, s := range st.shells {
			out = append(out, s.Dom.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Register records a flavor for Replenish to keep stocked, without
// consuming a shell. Callers that only want the pool primed (EnsureFlavor,
// placement probes) use this instead of a throwaway Take — taking a
// shell with nowhere to put it back would orphan its domain.
func (p *Pool) Register(f Flavor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.register(f)
}

// DaemonDown reports whether the pool daemon is currently dead (an
// injected crash whose restart window has not elapsed yet). Lock-free
// on purpose: the hotplug failover shim consults it from teardown
// paths that run while mu is already held.
func (p *Pool) DaemonDown() bool { return p.env.Clock.Now() < sim.Time(p.downUntil.Load()) }

// crash models the chaos daemon dying: its in-memory shell bookkeeping
// is lost, so the restarted daemon reaps every orphaned shell, and the
// pool stays empty until the restart completes. Flavors are reaped in
// sorted key order to keep the reap schedule deterministic. Caller
// holds mu.
func (p *Pool) crash() {
	e := p.env
	for _, st := range p.order {
		for _, s := range st.shells {
			p.reap(s)
		}
		st.shells = nil
	}
	p.Stats.Crashes++
	p.downUntil.Store(int64(e.Clock.Now().Add(costs.PoolDaemonRestart)))
	e.Trace.Emit("pool", "crash", "", "", 0)
}

// reap tears down one orphaned shell: device state (store or noxs) and
// the pre-created domain.
func (p *Pool) reap(s *Shell) {
	e := p.env
	if s.Flavor.Store {
		for i, dev := range s.Flavor.Devices {
			switch dev.Kind {
			case hv.DevVif:
				e.BackVif.Teardown(s.Dom.ID, i)
			case hv.DevVbd:
				e.BackVbd.Teardown(s.Dom.ID, i)
			case hv.DevConsole:
				e.BackConsole.Teardown(s.Dom.ID, i)
			}
			xenbus.RemoveDeviceEntries(e.Store, s.Dom.ID, dev.Kind, i)
		}
	} else {
		e.Noxs.DestroyAll(s.Dom.ID)
	}
	_ = e.HV.DestroyDomain(s.Dom.ID)
}

// Take removes one shell for flavor, or returns nil on a pool miss
// (the caller then prepares inline, paying the full cost). The flavor
// is remembered so Replenish keeps it stocked.
func (p *Pool) Take(f Flavor) *Shell {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.register(f)
	if p.env.Faults.Fire(faults.KindDaemonCrash) {
		p.crash()
	}
	if p.DaemonDown() {
		p.Stats.Misses++
		p.env.Trace.Emit("pool", "miss", st.key, "daemon-down", 0)
		return nil
	}
	q := st.shells
	if len(q) == 0 {
		p.Stats.Misses++
		p.env.Trace.Emit("pool", "miss", st.key, "", 0)
		return nil
	}
	// Shift down instead of reslicing so the queue's backing array is
	// reused by the next replenish instead of regrown.
	s := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	st.shells = q[:len(q)-1]
	p.Stats.Taken++
	p.env.Clock.Sleep(costs.ShellPoolHit)
	return s
}

// Replenish tops every known flavor up to the target depth (in sorted
// key order, so the prepare schedule is deterministic however flavors
// were registered), charging the prepare work to the current
// (background) time. While the daemon is down after a crash there is
// nobody to do the work.
func (p *Pool) Replenish() error { return p.ReplenishUntil(0) }

// ReplenishUntil is Replenish bounded by a clock deadline: the daemon
// stops starting new prepares once the clock reaches it (the prepare
// in flight still completes — shell builds don't abort halfway). A
// serving loop passes the next request's arrival time, modeling the
// background daemon yielding the control plane to foreground work
// instead of batching an unbounded top-up into one beat and queueing
// every arrival behind it. deadline 0 means no bound.
func (p *Pool) ReplenishUntil(deadline sim.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.DaemonDown() {
		return nil
	}
	for _, st := range p.order {
		for len(st.shells) < p.target {
			if deadline > 0 && p.env.Clock.Now() >= deadline {
				return nil
			}
			s, err := p.prepare(st.flavor, st.key)
			if err != nil {
				return err
			}
			st.shells = append(st.shells, s)
		}
	}
	return nil
}

// Prepare runs the prepare phase for one shell: hypervisor
// reservation, compute allocation, memory reservation + preparation,
// and device pre-creation (Fig. 8 steps 1–5).
func (p *Pool) Prepare(f Flavor) (*Shell, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prepare(f, f.key())
}

// prepare is Prepare with mu held; fkey is f's key, for the trace. A
// shell being prepared is journaled under "shell:<domid>" — if the
// daemon crashes at a crash point the half-built shell leaks (no
// rollback) and recovery reaps it from the journal; it never enters
// the pool, so it cannot also be reaped by a later daemon-crash drain.
func (p *Pool) prepare(f Flavor, fkey string) (*Shell, error) {
	e := p.env
	core := e.Sched.Place()
	dom, err := e.HV.CreateDomain(hv.Config{MaxMem: f.Img.MemBytes, VCPUs: 1, Cores: []int{core}})
	if err != nil {
		return nil, err
	}
	key := "shell:" + strconv.Itoa(int(dom.ID))
	e.journalSet(f.Store, key, journalOpPrepare, "devices", dom.ID)
	if cerr := e.crashPoint("pool.prepare.hv"); cerr != nil {
		return nil, cerr
	}
	rollback := func(err error) error {
		err = e.rollbackDomain(err, f.Store, key, dom.ID)
		e.journalClear(f.Store, key)
		return err
	}
	if err := e.PopulateGuest(dom.ID, f.Img); err != nil {
		return nil, rollback(err)
	}
	if f.Store {
		for i, dev := range f.Devices {
			req := xenbus.DeviceReq{Kind: dev.Kind, Dom: dom.ID, Idx: i, MAC: ""}
			if err := e.Store.Txn(8, func(tx *xenstore.Tx) error {
				xenbus.WriteDeviceEntries(tx, req)
				return nil
			}); err != nil {
				return nil, rollback(err)
			}
			if err := xenbus.WaitBackendReady(e.Store, e.Clock, dom.ID, dev.Kind, i); err != nil {
				return nil, rollback(err)
			}
		}
	} else {
		for i, dev := range f.Devices {
			if _, err := e.Noxs.CreateDevice(dom.ID, dev.Kind, i, ""); err != nil {
				return nil, rollback(err)
			}
		}
	}
	if cerr := e.crashPoint("pool.prepare.devices"); cerr != nil {
		return nil, cerr
	}
	e.Clock.Sleep(costs.ShellPrepare)
	p.Stats.Prepared++
	e.journalClear(f.Store, key)
	e.Trace.Emit("pool", "prepare", fkey, "", 0)
	return &Shell{Dom: dom, Core: core, Flavor: f}, nil
}

// finalizeDevices is the execute phase's "device initialization": set
// the real MACs on the pre-created devices. The crash point models the
// toolstack dying between taking the shell and finishing it: the shell
// is already out of the pool, so only the taker's journal record knows
// about the domain.
func (p *Pool) finalizeDevices(s *Shell, img guest.Image) error {
	e := p.env
	if err := e.crashPoint("pool.finalize"); err != nil {
		return err
	}
	if s.Flavor.Store {
		domPath := xenbus.DomainPath(s.Dom.ID)
		return e.Store.Txn(8, func(tx *xenstore.Tx) error {
			for i, dev := range img.Devices {
				if dev.Kind == hv.DevVif {
					tx.Write(xenbus.FrontendPath(s.Dom.ID, dev.Kind, i)+"/mac", dev.MAC)
				}
			}
			tx.Write(domPath+"/domid", strconv.Itoa(int(s.Dom.ID)))
			return nil
		})
	}
	for i, dev := range img.Devices {
		if dev.Kind == hv.DevVif {
			if err := e.Noxs.SetMAC(s.Dom.ID, dev.Kind, i, dev.MAC); err != nil {
				return err
			}
		}
	}
	return nil
}

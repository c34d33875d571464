// Package cluster is the §7.1 scheduler: a fleet of LightVM hosts —
// "one or a few machines" per edge cell up to a datacenter — running
// per-subscriber VMs that "enter and leave the cell continuously, so
// it is critical to be able to instantiate, terminate and migrate
// personal firewalls quickly and cheaply".
//
// Every simulated host is its own logical process on the parallel
// discrete-event core (sim.Shard): a private clock, a private
// toolstack.Env with the full control plane, and a mailbox. A
// controller process (shard 0) runs the cluster scheduler — placement,
// failover, migration orchestration, heartbeat liveness — and ALL
// cross-host interaction travels as timestamped messages with at least
// costs.ClusterLookahead of latency, which is what lets sim.Engine
// execute host timelines concurrently between synchronization points.
//
// The protocol (every arrow is a sim.Shard.Send):
//
//	controller → host:  create batch, destroy, migrate-out, reap,
//	                    fence, stop
//	host → controller:  heartbeat, create ack, destroy ack, migrate
//	                    ack/nack/refusal
//	host → host:        checkpoint stream (Save on the source's clock,
//	                    migrate.StreamCost of wire delay, Restore on the
//	                    destination's clock)
//
// The controller schedules against its *view* of the fleet — VM counts
// it maintains from acks, liveness it infers from heartbeat silence —
// never by peeking at host state. Failure recovery is fenced: a host
// declared dead is sent a fence (a power-off that is idempotent if it
// really is dead), re-placement waits two lookaheads so the fence
// provably lands first, and every command carries the VM's placement
// epoch so a stale ack (the "dead" host answering after failover) is
// detected and the orphan reaped instead of double-counted.
//
// ShardedConfig.Faults arms the fault plane. Each host draws every
// decision from its own injector on its own clock, so output stays
// byte-identical at any worker count:
//
//   - host-flap and host-failure crash the host; it reboots empty and
//     rejoins with a new incarnation number in its beats, which is how
//     the controller catches an outage shorter than DeadAfter;
//   - host-slow dilates the host's operations and backdates its beats,
//     so a short DeadAfter declares a merely slow host dead (a false
//     positive) — the fence then reboots it empty, and no VM runs
//     twice;
//   - partition cuts one edge (to the controller or to another host)
//     that the owning host enforces: it drops every message it sends
//     or receives across the cut, except the controller's fence, which
//     is an out-of-band power switch. A host that drops a command or an
//     ack has lost sync with the controller and self-fences (reboots
//     empty); a handover across a cut is refused or lost;
//   - the toolstack kinds fire inside each host's Env as on a single
//     machine, and migration-drop severs handover streams (noxs
//     resumes, xl rolls back onto the source).
//
// A zero Faults plan builds no injector and sends exactly the messages
// of the fault-free protocol.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"lightvm/internal/core"
	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/migrate"
	"lightvm/internal/mm"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/xenstore"
)

// HostPool is one homogeneous slice of the fleet: n hosts running one
// toolstack mode, populated with VMs of one image.
type HostPool struct {
	Name  string
	Mode  toolstack.Mode
	Hosts int
	VMs   int
	Image guest.Image
}

// ShardedConfig sizes the sharded cluster.
type ShardedConfig struct {
	// Machine is the per-host hardware (every member is identical).
	Machine sched.Machine
	// Workers bounds the engine's worker goroutines (the shard-count
	// sweep dimension; results are identical for every value). 0 = 1.
	Workers int
	// Seed drives the controller's churn decisions and each host's
	// stochastic behaviour.
	Seed uint64
	// Heartbeat overrides costs.HeartbeatPeriod (tests only).
	Heartbeat time.Duration
	// DeadAfter overrides costs.HeartbeatDead: the heartbeat silence
	// after which the controller declares a member dead. It trades
	// recovery speed against false positives on slow hosts; ext-gray
	// sweeps it.
	DeadAfter time.Duration
	// Faults arms the fault plane on every member (see the package
	// comment); each host's injector is seeded from Seed and its index.
	// Plan.Window bounds injection in virtual time. The zero value is
	// fault-free.
	Faults faults.Plan
}

// ChurnSpec is the deterministic workload program RunChurn executes.
type ChurnSpec struct {
	// Waves is the number of arrival rounds; each pool's VMs are
	// placed in equal batches across them, WavePeriod apart.
	Waves int
	// WavePeriod is the virtual time between arrival rounds.
	WavePeriod time.Duration
	// MigratePerWave live-migrates this many running VMs per wave
	// (handover churn), picked by the controller's RNG.
	MigratePerWave int
	// DepartPerWave destroys this many running VMs per wave.
	DepartPerWave int
	// FailAt lists virtual times at which one random live host dies a
	// whole-machine death; recovery goes through heartbeat detection.
	FailAt []time.Duration
	// Drain is the extra settle time after the last wave before the
	// run is forcibly stopped even if VMs are still in flight.
	Drain time.Duration
}

// vm placement states (controller view).
const (
	vmNone      uint8 = iota // id not yet assigned
	vmPlacing                // create command in flight
	vmPlaced                 // running, ack received
	vmMigrating              // checkpoint stream in flight
	vmDeparting              // destroy command in flight
	vmGone                   // destroyed
)

// Per-VM outcomes of a create batch.
const (
	createOK     uint8 = iota
	createFailed       // transient error: re-place on another host
	createFull         // resource exhaustion: the host is full
)

// PoolChurn is one pool's slice of a ChurnReport.
type PoolChurn struct {
	Name          string
	Hosts         int
	Placed        int // VMs running at the end of the run
	Created       int // successful creations (initial + failover)
	CreateFailed  int // creations that returned an error (re-placed)
	Migrations    int
	MigrateFailed int            // handovers refused, rolled back or lost
	CreateMS      metrics.Series // per-creation latency (create+boot), ms
	MigrateMS     metrics.Series // per-handover latency (save+wire+restore), ms
}

// ChurnReport is RunChurn's deterministic result.
type ChurnReport struct {
	Pools      []PoolChurn
	FailoverMS metrics.Series // per-VM outage across host failures (one per recovery), ms

	HostsFailed    int    // injected whole-machine failures (ChurnSpec.FailAt)
	Detected       int    // member deaths detected: silence or a new incarnation
	FalsePositives int    // fences that landed on a host that was up and reachable
	Failovers      int    // VMs re-placed after a detected death
	Fenced         int    // stale acks detected and orphans reaped
	Saturated      int    // placements parked because no host had room
	Unplaced       int    // VMs still not running at the forced stop
	DeferredBeats  uint64 // heartbeats skipped inside nested host ops
	FaultsInjected uint64 // faults fired across every host's injector
	DoubleStarts   int    // booted copies the controller does not place there (want 0)
	FsckViolated   int    // cross-layer invariant violations (want 0)

	Engine     sim.EngineStats
	MakespanMS float64
}

// Sharded is a cluster of host logical processes plus a controller.
type Sharded struct {
	cfg       ShardedConfig
	eng       *sim.Engine
	ctl       *shardCtl
	agents    []*hostAgent
	heartbeat time.Duration
	deadAfter time.Duration
}

// poolState is the controller's per-pool bookkeeping.
type poolState struct {
	HostPool
	firstVM uint32
	nextVM  uint32   // next id to assign in the initial waves
	heap    []uint64 // packed (count<<32 | gidx) min-heap, lazy entries
	report  PoolChurn
}

// shardCtl is the controller logical process (shard 0). Everything in
// it is touched only from shard-0 event handlers.
type shardCtl struct {
	sc    *Sharded
	shard *sim.Shard
	rng   *sim.RNG
	spec  ChurnSpec
	pools []*poolState

	// Per-host view, indexed by global host index. inc is the host
	// incarnation the controller last heard from; commands carry it so
	// a rebooted host ignores work meant for its previous life.
	count    []int32
	alive    []bool
	full     []bool
	lastBeat []sim.Time
	inc      []uint32
	poolOf   []uint8

	// Per-VM view, indexed by id. vmFrom is the migration source of a
	// vmMigrating VM (vmHost already points at the destination); it is
	// only meaningful while the state is vmMigrating.
	vmHost  []int32
	vmPool  []uint8
	vmState []uint8
	vmEpoch []uint32
	vmFrom  []int32

	// failedAt records injected failure times for the unavailability
	// metric; vmFailedAt tags in-flight failover re-placements.
	failedAt   map[int]sim.Time
	vmFailedAt map[uint32]sim.Time

	pending  int // VMs in a transient state (quiesce condition)
	satQueue []uint32
	stopped  bool
	wavesRun int
	wavesEnd sim.Time
	report   ChurnReport

	// scratch for batch grouping, reused across waves.
	batchHosts []int32
	batchIDs   map[int32][]uint32
}

// hostAgent is one host logical process: the full simulated machine
// plus the message handlers of the cluster protocol. Only its own
// shard's handlers touch it.
type hostAgent struct {
	sc    *Sharded
	shard *sim.Shard
	host  *core.Host
	gidx  int
	mode  toolstack.Mode
	img   guest.Image
	seed  uint64

	flavorReady bool
	// opDepth counts toolstack operations in progress on this host.
	// The heartbeat tick can fire from a clock advance nested inside
	// one (a create sleeping mid-boot, a restore loading pages);
	// reporting from there would read toolstack state the operation is
	// mid-way through mutating, so the beat defers to the next tick.
	opDepth       int
	deferredBeats uint64
	dead          bool // powered off (crashed, fenced, or a machine death)
	gone          bool // a whole-machine death: never reboots
	stopped       bool
	ticking       bool // a heartbeat tick is scheduled
	nameBuf       []byte

	// busy/workq serialize env-touching commands. Batch stepping (see
	// createBatch) deliberately returns to the event loop between
	// creates so fences and beats stay timely — which means a command
	// message can fire from a clock advance nested inside another
	// toolstack operation. Reentering the env there would corrupt it
	// (or self-deadlock on its locks), so every command funnels
	// through exec's one-at-a-time queue instead.
	busy  bool
	workq []func()

	// Fault plane (nil inj: fault-free). inc counts reboots. While
	// now < slowUntil the host is slow by slowFactor; while
	// now < cutUntil the edge to shard cutPeer is cut.
	inj            *faults.Injector
	inc            uint32
	slowUntil      sim.Time
	slowFactor     float64
	cutUntil       sim.Time
	cutPeer        int
	falsePositives int
}

// exec runs op now if the host is idle, otherwise queues it behind the
// operation in progress. Queue order is arrival order, which is itself
// deterministic (nested firing follows the canonical delivery order).
func (a *hostAgent) exec(op func()) {
	a.workq = append(a.workq, op)
	if a.busy {
		return
	}
	a.busy = true
	for len(a.workq) > 0 {
		next := a.workq[0]
		copy(a.workq, a.workq[1:])
		a.workq[len(a.workq)-1] = nil
		a.workq = a.workq[:len(a.workq)-1]
		next()
	}
	a.busy = false
}

// NewSharded builds the engine, the controller and one agent per host.
func NewSharded(cfg ShardedConfig, pools []HostPool) (*Sharded, error) {
	if len(pools) == 0 {
		return nil, fmt.Errorf("cluster: sharded needs at least one pool")
	}
	totalHosts := 0
	totalVMs := uint32(0)
	for _, p := range pools {
		if p.Hosts <= 0 || p.VMs < 0 {
			return nil, fmt.Errorf("cluster: pool %q needs hosts > 0", p.Name)
		}
		totalHosts += p.Hosts
		totalVMs += uint32(p.VMs)
	}
	sc := &Sharded{
		cfg:       cfg,
		heartbeat: cfg.Heartbeat,
		deadAfter: cfg.DeadAfter,
	}
	if sc.heartbeat <= 0 {
		sc.heartbeat = costs.HeartbeatPeriod
	}
	if sc.deadAfter <= 0 {
		sc.deadAfter = costs.HeartbeatDead
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	sc.eng = sim.NewEngine(totalHosts+1, workers, costs.ClusterLookahead)

	ctl := &shardCtl{
		sc:         sc,
		shard:      sc.eng.Shard(0),
		rng:        sim.NewRNG(cfg.Seed),
		count:      make([]int32, totalHosts),
		alive:      make([]bool, totalHosts),
		full:       make([]bool, totalHosts),
		lastBeat:   make([]sim.Time, totalHosts),
		inc:        make([]uint32, totalHosts),
		poolOf:     make([]uint8, totalHosts),
		vmHost:     make([]int32, totalVMs),
		vmPool:     make([]uint8, totalVMs),
		vmState:    make([]uint8, totalVMs),
		vmEpoch:    make([]uint32, totalVMs),
		vmFrom:     make([]int32, totalVMs),
		failedAt:   make(map[int]sim.Time),
		vmFailedAt: make(map[uint32]sim.Time),
		batchIDs:   make(map[int32][]uint32),
	}
	for i := range ctl.vmHost {
		ctl.vmHost[i] = -1
	}
	sc.ctl = ctl

	sc.agents = make([]*hostAgent, totalHosts)
	g := 0
	vmBase := uint32(0)
	for pi, p := range pools {
		ps := &poolState{HostPool: p, firstVM: vmBase, nextVM: vmBase}
		ps.report.Name = p.Name
		ps.report.Hosts = p.Hosts
		ps.report.CreateMS.Values = make([]float64, 0, p.VMs)
		ctl.pools = append(ctl.pools, ps)
		for h := 0; h < p.Hosts; h++ {
			shard := sc.eng.Shard(g + 1)
			seed := cfg.Seed + uint64(g)*0x9e37 + 1
			host, err := core.NewHostOn(shard.Clock(), cfg.Machine, seed)
			if err != nil {
				return nil, fmt.Errorf("cluster: sharded host %d: %w", g, err)
			}
			a := &hostAgent{
				sc: sc, shard: shard, host: host, gidx: g,
				mode: p.Mode, img: p.Image, seed: seed,
			}
			if cfg.Faults.Rate > 0 {
				a.inj = faults.New(shard.Clock(), seed^0x5eed_fa17, cfg.Faults)
				host.Env.SetFaults(a.inj)
			}
			sc.agents[g] = a
			ctl.alive[g] = true
			ctl.poolOf[g] = uint8(pi)
			ps.pushHost(g, 0)
			g++
		}
		vmBase += uint32(p.VMs)
	}
	return sc, nil
}

// Engine exposes the underlying engine (stats, shard handles) for
// tests and the experiment harness.
func (sc *Sharded) Engine() *sim.Engine { return sc.eng }

// ---------------------------------------------------------------------------
// Controller: placement heap
// ---------------------------------------------------------------------------

// The per-pool heap holds (count, host) keys packed into a uint64 so
// least-loaded-first with host-index tie-break is a single integer
// compare. Entries are lazy: count changes and deaths do not search
// the heap, they just make old entries stale; pop discards any entry
// whose packed count disagrees with the live view.

func packLoad(count int32, gidx int) uint64 { return uint64(count)<<32 | uint64(uint32(gidx)) }

func (ps *poolState) pushHost(gidx int, count int32) {
	ps.heap = append(ps.heap, packLoad(count, gidx))
	i := len(ps.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if ps.heap[parent] <= ps.heap[i] {
			break
		}
		ps.heap[parent], ps.heap[i] = ps.heap[i], ps.heap[parent]
		i = parent
	}
}

func (ps *poolState) popHost() (uint64, bool) {
	if len(ps.heap) == 0 {
		return 0, false
	}
	top := ps.heap[0]
	last := len(ps.heap) - 1
	ps.heap[0] = ps.heap[last]
	ps.heap = ps.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && ps.heap[l] < ps.heap[small] {
			small = l
		}
		if r < last && ps.heap[r] < ps.heap[small] {
			small = r
		}
		if small == i {
			break
		}
		ps.heap[i], ps.heap[small] = ps.heap[small], ps.heap[i]
		i = small
	}
	return top, true
}

// pickHost returns the least-loaded live host of the pool (excluding
// skip; pass -1 for none), or -1 when the pool is saturated. The
// chosen host's view count is incremented and re-pushed.
func (c *shardCtl) pickHost(ps *poolState, skip int) int {
	var heldKey uint64
	held := false
	chosen := -1
	for {
		key, ok := ps.popHost()
		if !ok {
			break
		}
		gidx := int(uint32(key))
		cnt := int32(key >> 32)
		if !c.alive[gidx] || c.full[gidx] || cnt != c.count[gidx] {
			continue // stale or unusable entry: drop it
		}
		if gidx == skip {
			// At most one live entry can be skip; park it and re-insert
			// after the pick.
			heldKey, held = key, true
			continue
		}
		c.count[gidx]++
		ps.pushHost(gidx, c.count[gidx])
		chosen = gidx
		break
	}
	if held {
		ps.pushHost(int(uint32(heldKey)), int32(heldKey>>32))
	}
	return chosen
}

// unreserve gives a slot back to a host's view count (departure,
// failed create, cancelled migration). It must push a fresh heap entry
// — the decrement just made every existing entry for the host stale,
// and a host with only stale entries silently drops out of placement.
func (c *shardCtl) unreserve(g int) {
	c.count[g]--
	if c.alive[g] {
		c.pools[c.poolOf[g]].pushHost(g, c.count[g])
	}
}

// ---------------------------------------------------------------------------
// Controller: state transitions
// ---------------------------------------------------------------------------

// setState moves a VM between placement states, maintaining the
// transient-VM counter that gates shutdown.
func (c *shardCtl) setState(id uint32, to uint8) {
	from := c.vmState[id]
	if transient(from) {
		c.pending--
	}
	if transient(to) {
		c.pending++
	}
	c.vmState[id] = to
}

func transient(s uint8) bool { return s == vmPlacing || s == vmMigrating || s == vmDeparting }

// ---------------------------------------------------------------------------
// Controller: workload program
// ---------------------------------------------------------------------------

// RunChurn executes the spec and returns the deterministic report.
func (sc *Sharded) RunChurn(spec ChurnSpec) (*ChurnReport, error) {
	if spec.Waves <= 0 || spec.WavePeriod <= 0 {
		return nil, fmt.Errorf("cluster: churn needs waves and a wave period")
	}
	if spec.Drain <= 0 {
		spec.Drain = 10 * time.Second
	}
	c := sc.ctl
	c.spec = spec
	clk := c.shard.Clock()

	// Arrival waves, offset past t=0 so the first heartbeats land
	// before the first placement decisions.
	for w := 0; w < spec.Waves; w++ {
		at := sim.Time(0).Add(sc.heartbeat/2 + time.Duration(w)*spec.WavePeriod)
		clk.Schedule(at, c.wave)
	}
	c.wavesEnd = sim.Time(0).Add(sc.heartbeat/2 + time.Duration(spec.Waves)*spec.WavePeriod)

	// Host failures.
	for _, at := range spec.FailAt {
		clk.Schedule(sim.Time(0).Add(at), c.failRandomHost)
	}

	// Heartbeats: every host beats on a shared cadence (aligned beats
	// collapse into one engine window instead of a thousand), and the
	// controller scans for silence on the same period, offset so beats
	// land first.
	for _, a := range sc.agents {
		a.ticking = true
		a.shard.Clock().Schedule(sim.Time(0).Add(sc.heartbeat), a.heartbeatTick)
	}
	clk.Schedule(sim.Time(0).Add(sc.heartbeat+sc.heartbeat/2), c.healthTick)

	// Shutdown: poll for quiescence once the waves are done; force a
	// stop at the drain deadline.
	clk.Schedule(c.wavesEnd, c.quiescePoll)

	c.report.Engine = sc.eng.Run()
	return sc.harvest()
}

// wave is one arrival round: place the next batch of every pool's VMs,
// then inject handover and departure churn.
func (c *shardCtl) wave() {
	if c.stopped {
		return
	}
	c.wavesRun++
	for pi, ps := range c.pools {
		remaining := ps.firstVM + uint32(ps.VMs) - ps.nextVM
		batch := uint32(ps.VMs / c.spec.Waves)
		if batch == 0 {
			batch = 1
		}
		if batch > remaining || c.wavesRun == c.spec.Waves {
			batch = remaining // the last wave sweeps up the remainder
		}
		for k := uint32(0); k < batch; k++ {
			id := ps.nextVM
			ps.nextVM++
			c.vmPool[id] = uint8(pi)
			c.placeVM(id, -1)
		}
	}
	c.flushBatches()
	for i := 0; i < c.spec.MigratePerWave; i++ {
		c.migrateRandom()
	}
	for i := 0; i < c.spec.DepartPerWave; i++ {
		c.departRandom()
	}
}

// placeVM assigns a host from the VM's pool (other than skip; -1 for
// none) and stages the create in the per-host batch buffer
// (flushBatches sends them).
func (c *shardCtl) placeVM(id uint32, skip int) {
	ps := c.pools[c.vmPool[id]]
	gidx := c.pickHost(ps, skip)
	if gidx < 0 {
		c.report.Saturated++
		c.satQueue = append(c.satQueue, id)
		c.setState(id, vmPlacing) // transient: parked, retried on ticks
		c.vmHost[id] = -1
		return
	}
	c.vmHost[id] = int32(gidx)
	c.setState(id, vmPlacing)
	h := int32(gidx)
	if _, seen := c.batchIDs[h]; !seen {
		c.batchHosts = append(c.batchHosts, h)
	}
	c.batchIDs[h] = append(c.batchIDs[h], id)
}

// flushBatches ships the staged creates, one message per host, in
// ascending host order (send order is part of the deterministic
// delivery order).
func (c *shardCtl) flushBatches() {
	if len(c.batchHosts) == 0 {
		return
	}
	sort.Slice(c.batchHosts, func(i, j int) bool { return c.batchHosts[i] < c.batchHosts[j] })
	for _, h := range c.batchHosts {
		ids := c.batchIDs[h]
		delete(c.batchIDs, h)
		epochs := make([]uint32, len(ids))
		for i, id := range ids {
			epochs[i] = c.vmEpoch[id]
		}
		agent, inc := c.sc.agents[h], c.inc[h]
		c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() {
			agent.createBatch(inc, ids, epochs)
		})
	}
	c.batchHosts = c.batchHosts[:0]
}

// migrateRandom picks a running VM and live-migrates it to the
// least-loaded other host of its pool — the §7.1 subscriber handover.
func (c *shardCtl) migrateRandom() {
	id, ok := c.pickRunningVM()
	if !ok {
		return
	}
	ps := c.pools[c.vmPool[id]]
	src := int(c.vmHost[id])
	dst := c.pickHost(ps, src)
	if dst < 0 {
		c.report.Saturated++
		return
	}
	c.unreserve(src)
	c.setState(id, vmMigrating)
	c.vmHost[id] = int32(dst)
	c.vmFrom[id] = int32(src)
	epoch := c.vmEpoch[id]
	srcAgent, dstAgent := c.sc.agents[src], c.sc.agents[dst]
	srcInc, dstInc := c.inc[src], c.inc[dst]
	c.shard.Send(srcAgent.shard.ID(), costs.ClusterLookahead, func() {
		srcAgent.migrateOut(srcInc, id, epoch, dstAgent, dstInc)
	})
}

// departRandom destroys a running VM (the subscriber leaving the
// cell), exercising teardown under churn.
func (c *shardCtl) departRandom() {
	id, ok := c.pickRunningVM()
	if !ok {
		return
	}
	gidx := int(c.vmHost[id])
	c.full[gidx] = false
	c.unreserve(gidx)
	c.setState(id, vmDeparting)
	epoch := c.vmEpoch[id]
	agent, inc := c.sc.agents[gidx], c.inc[gidx]
	c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() {
		agent.destroyVM(inc, id, epoch)
	})
}

// pickRunningVM draws uniformly from the assigned id space until it
// hits a placed VM (bounded attempts keep the draw cheap under heavy
// churn).
func (c *shardCtl) pickRunningVM() (uint32, bool) {
	total := uint32(0)
	for _, ps := range c.pools {
		total += ps.nextVM - ps.firstVM
	}
	if total == 0 {
		return 0, false
	}
	for attempt := 0; attempt < 16; attempt++ {
		k := uint32(c.rng.Intn(int(total)))
		var id uint32
		for _, ps := range c.pools {
			span := ps.nextVM - ps.firstVM
			if k < span {
				id = ps.firstVM + k
				break
			}
			k -= span
		}
		if c.vmState[id] == vmPlaced && c.alive[c.vmHost[id]] {
			return id, true
		}
	}
	return 0, false
}

// failRandomHost kills one random live member — the whole-machine
// failure of §7.1. The controller's scheduler side learns of it only
// through heartbeat silence.
func (c *shardCtl) failRandomHost() {
	if c.stopped {
		return
	}
	var live []int
	for g, ok := range c.alive {
		if ok {
			live = append(live, g)
		}
	}
	if len(live) <= 1 {
		return
	}
	victim := live[c.rng.Intn(len(live))]
	c.failedAt[victim] = c.shard.Clock().Now()
	c.report.HostsFailed++
	agent := c.sc.agents[victim]
	c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.crash(0) })
}

// healthTick scans for heartbeat silence, declares dead members, and
// retries saturated placements. It reschedules itself until shutdown.
func (c *shardCtl) healthTick() {
	if c.stopped {
		return
	}
	now := c.shard.Clock().Now()
	for g := range c.alive {
		if !c.alive[g] {
			continue
		}
		if now.Sub(c.lastBeat[g]) > c.sc.deadAfter {
			c.declareDead(g)
		}
	}
	if len(c.satQueue) > 0 {
		retry := c.satQueue
		c.satQueue = nil
		for _, id := range retry {
			if c.vmState[id] == vmPlacing && c.vmHost[id] < 0 {
				c.setState(id, vmNone) // placeVM re-enters the transient state
				c.placeVM(id, -1)
			}
		}
		c.flushBatches()
	}
	c.shard.Clock().After(c.sc.heartbeat, c.healthTick)
}

// declareDead fences a silent member and fails its VMs over. The fence
// is sent before any re-placement and the re-place waits two
// lookaheads, so by the time a replacement can boot the old copy is
// provably powered off — the message-passing form of the no-double-run
// guarantee. The fence names the incarnation the controller knows: a
// host that has rebooted since is already empty and ignores it.
func (c *shardCtl) declareDead(g int) {
	c.alive[g] = false
	agent, inc := c.sc.agents[g], c.inc[g]
	c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.fence(inc) })
	failTime, injected := c.failedAt[g]
	if !injected {
		failTime = c.lastBeat[g] // down since the last beat heard
	}
	c.failover(g, failTime)
}

// failover re-places everything the view maps to member g, which is
// known to have lost its guests (declared dead, or rebooted). Stale
// acks from commands the host completed before dying are caught by the
// epoch bump.
func (c *shardCtl) failover(g int, failTime sim.Time) {
	c.report.Detected++
	var lost []uint32
	for id := range c.vmState {
		st := c.vmState[id]
		if st == vmMigrating && c.vmHost[id] != int32(g) && c.vmFrom[id] == int32(g) {
			// The handover's source died: the checkpoint stream will
			// never ship (or arrives stale). Un-reserve the destination
			// and re-place fresh.
			c.unreserve(int(c.vmHost[id]))
			lost = append(lost, uint32(id))
			continue
		}
		if c.vmHost[id] != int32(g) {
			continue
		}
		switch st {
		case vmDeparting:
			// The departure completes with the host's death; don't
			// resurrect a subscriber who already left.
			c.setState(uint32(id), vmGone)
		case vmPlaced, vmPlacing, vmMigrating:
			lost = append(lost, uint32(id))
		}
	}
	for _, id := range lost {
		c.vmEpoch[id]++
		c.setState(id, vmPlacing)
		c.vmHost[id] = -1
		if _, down := c.vmFailedAt[id]; !down {
			c.vmFailedAt[id] = failTime // an outage runs from its first failure
		}
	}
	c.report.Failovers += len(lost)
	// Re-place after the fence has provably landed.
	c.shard.Clock().After(2*costs.ClusterLookahead, func() {
		for _, id := range lost {
			if c.vmState[id] == vmPlacing && c.vmHost[id] < 0 {
				c.setState(id, vmNone)
				c.placeVM(id, -1)
			}
		}
		c.flushBatches()
	})
}

// quiescePoll stops the run once every VM has settled and every live
// member is beating (or at the drain deadline, whichever comes first).
func (c *shardCtl) quiescePoll() {
	if c.stopped {
		return
	}
	now := c.shard.Clock().Now()
	deadline := c.wavesEnd.Add(c.spec.Drain)
	if (c.pending == 0 && !c.anySilent(now)) || now >= deadline {
		c.stopAll()
		return
	}
	c.shard.Clock().After(c.sc.heartbeat, c.quiescePoll)
}

// anySilent reports whether a member the controller trusts has missed
// beats: an outage not yet detected would strand its VMs.
func (c *shardCtl) anySilent(now sim.Time) bool {
	for g, ok := range c.alive {
		if ok && now.Sub(c.lastBeat[g]) > 2*c.sc.heartbeat {
			return true
		}
	}
	return false
}

// stopAll broadcasts the stop: hosts cancel their heartbeat loops, the
// controller cancels its ticks, and the engine drains to quiescence.
func (c *shardCtl) stopAll() {
	c.stopped = true
	for _, a := range c.sc.agents {
		agent := a
		c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.stop() })
	}
}

// ---------------------------------------------------------------------------
// Controller: ack handlers (run on shard 0 via host Sends)
// ---------------------------------------------------------------------------

// onBeat records a member's heartbeat. A beat from a newer incarnation
// means the member rebooted: whatever it ran died with its previous
// life, so an outage shorter than DeadAfter is caught here.
func (c *shardCtl) onBeat(g int, inc uint32, sentAt sim.Time) {
	switch {
	case inc < c.inc[g]:
		return
	case inc > c.inc[g]:
		if c.alive[g] {
			c.failover(g, c.lastBeat[g])
		}
		c.inc[g] = inc
		c.alive[g], c.full[g] = true, false
		c.count[g] = 0
		c.lastBeat[g] = sentAt
		c.pools[c.poolOf[g]].pushHost(g, 0)
		return
	}
	if sentAt > c.lastBeat[g] {
		c.lastBeat[g] = sentAt
	}
}

// onCreateAck settles a create batch: ok ids become placed, failed ids
// re-place elsewhere (marking the host full when it ran out of
// resources), stale ids (epoch moved — the VM was failed over while
// the command was in flight) get their orphan reaped on the acking
// host.
func (c *shardCtl) onCreateAck(g int, ids []uint32, epochs []uint32, latMS []float64, status []uint8) {
	agent, inc := c.sc.agents[g], c.inc[g]
	ackTime := c.shard.Clock().Now()
	li := 0
	for i, id := range ids {
		ps := c.pools[c.vmPool[id]]
		if status[i] != createOK {
			ps.report.CreateFailed++
		}
		if epochs[i] != c.vmEpoch[id] {
			// Stale: the controller re-owned this VM while the create
			// was in flight. Reap the orphan copy.
			if status[i] == createOK {
				li++
				c.report.Fenced++
				c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.reap(inc, id) })
			}
			continue
		}
		if status[i] != createOK {
			skip := g
			if status[i] == createFull {
				c.full[g] = true
				skip = -1
			}
			c.unreserve(g)
			c.setState(id, vmNone)
			c.placeVM(id, skip)
			continue
		}
		lat := latMS[li]
		li++
		if c.vmState[id] != vmPlacing {
			continue // departed/failed-over meanwhile with same epoch: impossible, but stay safe
		}
		c.setState(id, vmPlaced)
		ps.report.Created++
		ps.report.CreateMS.Add(lat)
		if t0, ok := c.vmFailedAt[id]; ok {
			c.report.FailoverMS.Add(float64(ackTime.Sub(t0)) / float64(time.Millisecond))
			delete(c.vmFailedAt, id)
		}
	}
	c.flushBatches()
}

// onDestroyAck settles a departure.
func (c *shardCtl) onDestroyAck(id uint32, epoch uint32) {
	if epoch != c.vmEpoch[id] || c.vmState[id] != vmDeparting {
		return
	}
	c.setState(id, vmGone)
}

// onMigrateAck settles a handover: the destination restored the
// checkpoint at doneAt; t0 is when the source began the save.
func (c *shardCtl) onMigrateAck(dstG int, id uint32, epoch uint32, t0, doneAt sim.Time) {
	agent, inc := c.sc.agents[dstG], c.inc[dstG]
	if epoch != c.vmEpoch[id] || c.vmState[id] != vmMigrating {
		c.report.Fenced++
		c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.reap(inc, id) })
		return
	}
	c.setState(id, vmPlaced)
	ps := c.pools[c.vmPool[id]]
	ps.report.Migrations++
	ps.report.MigrateMS.Add(float64(doneAt.Sub(t0)) / float64(time.Millisecond))
}

// onMigrateNack handles a handover that lost the VM (the source no
// longer had it, could not save it, or the stream never restored):
// the VM is re-placed fresh.
func (c *shardCtl) onMigrateNack(id uint32, epoch uint32) {
	if epoch != c.vmEpoch[id] || c.vmState[id] != vmMigrating {
		return
	}
	c.pools[c.vmPool[id]].report.MigrateFailed++
	c.vmEpoch[id]++
	c.unreserve(int(c.vmHost[id])) // give the destination its slot back
	c.setState(id, vmNone)
	c.placeVM(id, -1)
	c.flushBatches()
}

// onMigrateRefused handles a handover source g declined (a cut edge)
// or rolled back (a dropped xl stream): the VM keeps running on the
// source. If the controller re-owned the VM meanwhile (the destination
// died), the source's copy is an orphan and is reaped.
func (c *shardCtl) onMigrateRefused(g int, id uint32, epoch uint32) {
	if epoch != c.vmEpoch[id] || c.vmState[id] != vmMigrating {
		agent, inc := c.sc.agents[g], c.inc[g]
		c.report.Fenced++
		c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.reap(inc, id) })
		return
	}
	c.pools[c.vmPool[id]].report.MigrateFailed++
	c.unreserve(int(c.vmHost[id]))
	src := int(c.vmFrom[id])
	c.vmHost[id] = int32(src)
	c.count[src]++
	c.pools[c.poolOf[src]].pushHost(src, c.count[src])
	c.setState(id, vmPlaced)
}

// ---------------------------------------------------------------------------
// Host agent handlers (run on the host's shard)
// ---------------------------------------------------------------------------

// vmName renders the canonical VM name for an id (pool prefix + id).
func (a *hostAgent) vmName(id uint32) string {
	a.nameBuf = append(a.nameBuf[:0], 'v')
	a.nameBuf = strconv.AppendUint(a.nameBuf, uint64(id), 10)
	return string(a.nameBuf)
}

// live reports whether a command for incarnation inc may run now.
func (a *hostAgent) live(inc uint32) bool { return !a.dead && !a.stopped && inc == a.inc }

// cut reports whether this host's edge to shard peer is cut.
func (a *hostAgent) cut(peer int) bool {
	return a.cutPeer == peer && a.shard.Clock().Now() < a.cutUntil
}

// dropped reports whether a message that just arrived from shard from
// crossed a cut edge. Dropping a controller command leaves the
// controller with a view this host no longer shares, so the host
// self-fences.
func (a *hostAgent) dropped(from int, inc uint32) bool {
	if !a.cut(from) {
		return false
	}
	if from == 0 && inc == a.inc {
		a.crash(costs.HostReboot)
	}
	return true
}

// report sends fn to the controller. An ack lost to a cut edge desyncs
// the controller's view of this host, so the host self-fences.
func (a *hostAgent) report(fn func()) {
	if a.cut(0) {
		a.crash(costs.HostReboot)
		return
	}
	a.shard.Send(0, costs.ClusterLookahead, fn)
}

// dilate re-charges an operation that began at t0 at the slow
// factor's excess while a host-slow episode lasts.
func (a *hostAgent) dilate(t0 sim.Time) {
	clk := a.shard.Clock()
	if now := clk.Now(); now < a.slowUntil {
		clk.Sleep(time.Duration(float64(now.Sub(t0)) * (a.slowFactor - 1)))
	}
}

// heartbeatTick is the host's periodic report. The liveness ping
// always goes out — it is served below the toolstack (a raw socket on
// the member's management interface), so a busy control plane must not
// look like a dead machine: a host mid-way through a 24-VM failover
// batch would otherwise silently miss DeadAfter and get its whole pool
// declared dead. Only the toolstack *state snapshot* defers when the
// tick fires from a clock advance nested inside an operation (see
// opDepth) — reporting from there would read structures the operation
// is mid-way through mutating. With faults armed, each tick is also
// the host's opportunity to turn gray.
func (a *hostAgent) heartbeatTick() {
	a.ticking = false
	if a.dead || a.stopped {
		return // no reschedule: the loop ends here
	}
	now := a.shard.Clock().Now()
	if a.inj != nil && a.drawGray(now) {
		return // crashed
	}
	if a.opDepth > 0 {
		a.deferredBeats++ // snapshot deferred; the ping below still goes
	}
	g, inc, sentAt := a.gidx, a.inc, now
	if now < a.slowUntil {
		sentAt = now.Add(-time.Duration(float64(a.sc.heartbeat) * (a.slowFactor - 1)))
	}
	ctl := a.sc.ctl
	if !a.cut(0) {
		a.shard.Send(0, costs.ClusterLookahead, func() { ctl.onBeat(g, inc, sentAt) })
	}
	a.ticking = true
	a.shard.Clock().After(a.sc.heartbeat, a.heartbeatTick)
}

// drawGray makes one beat's gray-fault decisions, each from its kind's
// own stream of this host's injector, and reports whether the host
// crashed.
func (a *hostAgent) drawGray(now sim.Time) bool {
	in := a.inj
	if in.Fire(faults.KindHostFlap) {
		a.crash(costs.GrayFlapMin + in.Jitter(faults.KindHostFlap, costs.GrayFlapExtra))
		return true
	}
	if now >= a.slowUntil && in.Fire(faults.KindHostSlow) {
		a.slowFactor = costs.GraySlowFactorMin +
			(costs.GraySlowFactorMax-costs.GraySlowFactorMin)*in.Fraction(faults.KindHostSlow)
		a.slowUntil = now.Add(costs.GraySlowMin + in.Jitter(faults.KindHostSlow, costs.GraySlowExtra))
	}
	if now >= a.cutUntil && in.Fire(faults.KindPartition) {
		// The far end is the controller (shard 0) or another host.
		peers := len(a.sc.agents)
		k := int(in.Fraction(faults.KindPartition) * float64(peers))
		if k >= peers {
			k = peers - 1
		}
		if k > a.gidx {
			k++ // skip this host's own shard (gidx+1)
		}
		a.cutPeer = k
		a.cutUntil = now.Add(costs.GrayPartitionMin + in.Jitter(faults.KindPartition, costs.GrayPartitionExtra))
	}
	return false
}

// createBatch boots a batch of VMs and acks the controller with
// per-VM creation latencies (virtual ms) and outcomes.
func (a *hostAgent) createBatch(inc uint32, ids []uint32, epochs []uint32) {
	if a.dropped(0, inc) {
		return
	}
	a.exec(func() { a.startCreateBatch(inc, ids, epochs) })
}

func (a *hostAgent) startCreateBatch(inc uint32, ids []uint32, epochs []uint32) {
	if !a.live(inc) {
		return // silence; the controller recovers via failover
	}
	if a.inj.Fire(faults.KindHostFailure) {
		a.crash(costs.GrayFlapMin + a.inj.Jitter(faults.KindHostFailure, costs.GrayFlapExtra))
		return
	}
	clk := a.shard.Clock()
	lats := make([]float64, 0, len(ids))
	status := make([]uint8, len(ids))
	if !a.flavorReady {
		if err := a.host.EnsureFlavor(a.img, a.mode); err != nil {
			for i := range status {
				status[i] = createStatus(err)
			}
			a.ackCreates(ids, epochs, lats, status)
			return
		}
		a.flavorReady = true
	}
	// One create per clock event, chained: a batch of hundreds of xl
	// creates spans minutes of virtual time, and running it inside a
	// single handler would make the host catatonic for that span —
	// heartbeats would bunch up at the next window barrier and a fence
	// could not land between creates, so the controller would see a
	// live-looking host long after it died. Stepping the batch keeps
	// the host responsive between creates while each individual create
	// still holds opDepth (its boot sleeps defer the state snapshot).
	i := 0
	var step func()
	step = func() {
		if !a.live(inc) {
			return // died mid-batch: no ack, failover re-owns the rest
		}
		if i == len(ids) {
			_ = a.host.Replenish() // the chaos daemon's background beat
			a.ackCreates(ids, epochs, lats, status)
			return
		}
		a.opDepth++
		t0 := clk.Now()
		if _, err := a.host.CreateVM(a.mode, a.vmName(ids[i]), a.img); err != nil {
			status[i] = createStatus(err)
		} else {
			a.dilate(t0)
			lats = append(lats, float64(clk.Now().Sub(t0))/float64(time.Millisecond))
		}
		a.opDepth--
		i++
		clk.After(0, func() { a.exec(step) })
	}
	step()
}

// createStatus classifies a create error: running out of memory or
// store quota means the host is full; anything else is transient.
func createStatus(err error) uint8 {
	var quota *xenstore.ErrQuotaExceeded
	if errors.Is(err, mm.ErrOutOfMemory) || errors.As(err, &quota) {
		return createFull
	}
	return createFailed
}

func (a *hostAgent) ackCreates(ids []uint32, epochs []uint32, lats []float64, status []uint8) {
	g := a.gidx
	ctl := a.sc.ctl
	a.report(func() { ctl.onCreateAck(g, ids, epochs, lats, status) })
}

// destroyVM tears one guest down and acks.
func (a *hostAgent) destroyVM(inc uint32, id uint32, epoch uint32) {
	if a.dropped(0, inc) {
		return
	}
	a.exec(func() { a.doDestroyVM(inc, id, epoch) })
}

func (a *hostAgent) doDestroyVM(inc uint32, id uint32, epoch uint32) {
	if !a.live(inc) {
		return
	}
	a.destroyCopy(id)
	ctl := a.sc.ctl
	a.report(func() { ctl.onDestroyAck(id, epoch) })
}

// destroyCopy tears down this host's copy of a VM, if it has one.
func (a *hostAgent) destroyCopy(id uint32) {
	if vm, err := a.host.Env.VM(a.vmName(id)); err == nil {
		a.opDepth++
		_ = a.host.DestroyVM(vm)
		a.opDepth--
	}
}

// reap destroys an orphaned copy without acking (fence cleanup).
func (a *hostAgent) reap(inc uint32, id uint32) {
	if a.dropped(0, inc) {
		return
	}
	a.exec(func() {
		if a.live(inc) {
			a.destroyCopy(id)
		}
	})
}

// saveCheckpoint is migrate.Save; tests swap it to inject save-path
// failures.
var saveCheckpoint = migrate.Save

// migrateOut is the source half of a handover: suspend and checkpoint
// the guest on this host's timeline, then stream the checkpoint to the
// destination shard, charging the wire.
func (a *hostAgent) migrateOut(inc uint32, id uint32, epoch uint32, dst *hostAgent, dstInc uint32) {
	if a.dropped(0, inc) {
		return
	}
	a.exec(func() { a.doMigrateOut(inc, id, epoch, dst, dstInc) })
}

func (a *hostAgent) doMigrateOut(inc uint32, id uint32, epoch uint32, dst *hostAgent, dstInc uint32) {
	ctl, g := a.sc.ctl, a.gidx
	if !a.live(inc) {
		return
	}
	vm, err := a.host.Env.VM(a.vmName(id))
	if err != nil {
		a.report(func() { ctl.onMigrateNack(id, epoch) })
		return
	}
	if a.cut(dst.shard.ID()) {
		a.report(func() { ctl.onMigrateRefused(g, id, epoch) })
		return
	}
	clk := a.shard.Clock()
	t0 := clk.Now()
	a.opDepth++
	cp, _, err := saveCheckpoint(a.host.Env, vm)
	if err != nil {
		// Save bails out before tearing the instance down, leaving it
		// suspended here; reap it so the fresh re-placement is the only
		// copy.
		_ = a.host.DestroyVM(vm)
	}
	a.opDepth--
	if err != nil {
		a.report(func() { ctl.onMigrateNack(id, epoch) })
		return
	}
	a.dilate(t0)
	if a.streamDropped(cp) {
		// No resume: roll back by restoring the checkpoint here.
		a.opDepth++
		_, _, err := migrate.Restore(a.host.Env, cp)
		a.opDepth--
		if err != nil {
			a.report(func() { ctl.onMigrateNack(id, epoch) })
		} else {
			a.report(func() { ctl.onMigrateRefused(g, id, epoch) })
		}
		return
	}
	wire := costs.ClusterLookahead + migrate.StreamCost(cp)
	if a.cut(dst.shard.ID()) {
		a.report(func() { ctl.onMigrateNack(id, epoch) }) // the cut came up mid-save
		return
	}
	from := a.shard.ID()
	a.shard.Send(dst.shard.ID(), wire, func() { dst.receiveMigration(from, dstInc, cp, id, epoch, t0) })
}

// streamDropped plays migration-drop faults against one checkpoint
// stream, as migrate.Migrate does: each drop wastes the part already
// sent plus a round trip; the noxs path resumes up to
// migrate.StreamResumes times, and it reports true when the stream
// cannot be resumed.
func (a *hostAgent) streamDropped(cp *migrate.Checkpoint) bool {
	clk := a.shard.Clock()
	for attempt := 0; a.inj.Fire(faults.KindMigrationDrop); attempt++ {
		part := time.Duration(float64(migrate.StreamCost(cp)) * a.inj.Fraction(faults.KindMigrationDrop))
		clk.Sleep(part + costs.MigrationRTT)
		if cp.Mode.UsesStore() || attempt >= migrate.StreamResumes {
			return true
		}
		clk.Sleep(costs.MigrationResumeSetup + costs.MigrationRTT)
	}
	return false
}

// receiveMigration is the destination half: restore the checkpoint on
// this host's timeline and ack the controller. A stream across a cut
// edge never arrives, and the controller re-places the VM.
func (a *hostAgent) receiveMigration(from int, inc uint32, cp *migrate.Checkpoint, id uint32, epoch uint32, t0 sim.Time) {
	ctl := a.sc.ctl
	if a.dropped(from, inc) {
		if a.live(inc) {
			a.report(func() { ctl.onMigrateNack(id, epoch) })
		}
		return
	}
	a.exec(func() { a.doReceiveMigration(inc, cp, id, epoch, t0) })
}

func (a *hostAgent) doReceiveMigration(inc uint32, cp *migrate.Checkpoint, id uint32, epoch uint32, t0 sim.Time) {
	ctl := a.sc.ctl
	if !a.live(inc) {
		return // controller recovers via failover of this host
	}
	start := a.shard.Clock().Now()
	a.opDepth++
	_, _, err := migrate.Restore(a.host.Env, cp)
	a.opDepth--
	g := a.gidx
	if err != nil {
		a.report(func() { ctl.onMigrateNack(id, epoch) })
		return
	}
	a.dilate(start)
	doneAt := a.shard.Clock().Now()
	a.report(func() { ctl.onMigrateAck(g, id, epoch, t0, doneAt) })
}

// fence is the controller's out-of-band power-off of a member it
// declared dead. It names the incarnation the controller knew; a host
// that has rebooted since holds nothing of it. Landing on a host that
// was up and could reach the controller makes the declaration a false
// positive. A fenced host reboots empty.
func (a *hostAgent) fence(inc uint32) {
	if a.dead || inc != a.inc {
		return
	}
	if !a.cut(0) {
		a.falsePositives++
	}
	a.crash(costs.HostReboot)
}

// crash powers the host off. The flag flips immediately — even
// mid-operation — so in-flight batch chains abort at their next step
// and queued commands are dropped; the env teardown itself waits its
// turn in the op queue. After outage the host reboots empty under a
// new incarnation; outage 0 is a whole-machine death. Idempotent.
func (a *hostAgent) crash(outage time.Duration) {
	if a.dead {
		a.gone = a.gone || outage == 0
		return
	}
	a.dead = true
	a.workq = a.workq[:0]
	env := a.host.Env
	a.exec(env.MarkDead)
	if outage == 0 {
		a.gone = true
		return
	}
	a.shard.Clock().After(outage, a.reboot)
}

// reboot brings a crashed host back empty: a fresh machine on the same
// clock and injector, a new incarnation, and a heartbeat loop aligned
// to the shared cadence.
func (a *hostAgent) reboot() {
	if a.gone || a.stopped {
		return
	}
	a.inc++
	host, err := core.NewHostOn(a.shard.Clock(), a.sc.cfg.Machine, a.seed+uint64(a.inc)*0x51ed)
	if err != nil {
		a.gone = true // NewSharded already built this machine once; unreachable
		return
	}
	host.Env.SetFaults(a.inj)
	a.host, a.dead, a.flavorReady = host, false, false
	if !a.ticking {
		hb := a.sc.heartbeat
		clk := a.shard.Clock()
		a.ticking = true
		clk.Schedule(sim.Time((int64(clk.Now())/int64(hb)+1)*int64(hb)), a.heartbeatTick)
	}
}

// stop ends the host's background loops for shutdown.
func (a *hostAgent) stop() { a.stopped = true }

// ---------------------------------------------------------------------------
// Harvest
// ---------------------------------------------------------------------------

// harvest assembles the report after the engine has quiesced.
func (sc *Sharded) harvest() (*ChurnReport, error) {
	c := sc.ctl
	rep := &c.report
	for _, ps := range c.pools {
		placed := 0
		for id := ps.firstVM; id < ps.firstVM+uint32(ps.VMs); id++ {
			if c.vmState[id] == vmPlaced {
				placed++
			}
			if transient(c.vmState[id]) {
				rep.Unplaced++
			}
		}
		ps.report.Placed = placed
		rep.Pools = append(rep.Pools, ps.report)
	}
	for _, a := range sc.agents {
		rep.DeferredBeats += a.deferredBeats
		rep.FalsePositives += a.falsePositives
		rep.FaultsInjected += a.inj.TotalInjected()
		if !a.dead {
			rep.FsckViolated += len(toolstack.Fsck(a.host.Env))
		}
	}
	rep.DoubleStarts = sc.doubleStarts()
	rep.MakespanMS = float64(sc.eng.MaxTime()) / float64(time.Millisecond)
	return rep, nil
}

// doubleStarts audits every powered-on host for booted copies the
// controller does not place there: a second copy of a running VM, or a
// copy of one that departed. Fencing must hold it at zero.
func (sc *Sharded) doubleStarts() int {
	c := sc.ctl
	n := 0
	for _, a := range sc.agents {
		if a.dead {
			continue
		}
		for _, vm := range a.host.Env.AllVMs() {
			id, err := strconv.ParseUint(vm.Name[1:], 10, 32)
			if !vm.Booted || err != nil || int(id) >= len(c.vmHost) {
				continue
			}
			if c.vmHost[id] != int32(a.gidx) || c.vmState[id] == vmGone || c.vmState[id] == vmNone {
				n++
			}
		}
	}
	return n
}

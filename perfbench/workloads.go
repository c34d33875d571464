package main

import (
	"fmt"
	"runtime"
	"time"

	"lightvm/internal/cluster"
	"lightvm/internal/core"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/traffic"
)

// sizes fixes how much work one repeat does. Every repeat of a run does
// exactly the same work, so the simulated results repeat bit for bit.
type sizes struct {
	// density: resident guests (plus a seeded 0–5%) and churn steps.
	residents, steps int
	// serve-storm: fresh requests per serving timeline.
	requests int
	// fleet-churn: pool shapes and churn program.
	chaosHosts, chaosVMs, xlHosts, xlVMs int
	waves, migratePerWave, departPerWave int
}

var fullSize = sizes{
	residents: 1000, steps: 4000,
	requests:   12800,
	chaosHosts: 32, chaosVMs: 12800, xlHosts: 4, xlVMs: 32,
	waves: 4, migratePerWave: 100, departPerWave: 50,
}

// instance is one freshly set-up system.
type instance interface {
	// run is the timed phase: a closed loop of public calls on this
	// goroutine. It returns the ops attempted and the ops whose call
	// returned an error.
	run(tr *tracer) (attempted, failed int)
	// audit checks the end state and fills r's simulated results and
	// per-layer counts. It is not timed.
	audit(tr *tracer, r *repeat)
}

// setupFunc builds a fresh system from the generated inputs; set-up
// time is everything it does.
type setupFunc func(tr *tracer, r *repeat) (instance, error)

type workload struct {
	name string
	// prepare derives every input from the seed once per run. The
	// simulator only ever sees what prepare generated.
	prepare func(c *config) setupFunc
}

// workloads, in BENCHMARK.json order; README.md says why each exists
// and which layers it stresses.
var workloads = []workload{
	{"xl-density", prepareDensity(toolstack.ModeXL)},
	{"lightvm-density", prepareDensity(toolstack.ModeLightVM)},
	{"serve-storm", prepareServe},
	{"fleet-churn", prepareFleet},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// uniqueNames draws n distinct seeded guest names.
func uniqueNames(rng *sim.RNG, n int, seen map[string]bool) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		name := fmt.Sprintf("g%08x", rng.Uint64()>>32)
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recordState stores the working-set sizes of the hosts under prefix
// keys suffixed with when ("setup" or "end").
func recordState(r *repeat, when string, envs ...*toolstack.Env) {
	var nodes, watches, domains, ports, grants int
	var used uint64
	for _, e := range envs {
		nodes += e.Store.NumNodes()
		watches += e.Store.NumWatches()
		domains += e.HV.NumDomains()
		ports += e.HV.NumPorts()
		grants += e.HV.NumGrants()
		used += e.HV.Mem.UsedBytes()
	}
	r.det["xenstore.nodes_"+when] = float64(nodes)
	r.det["xenstore.watches_"+when] = float64(watches)
	r.det["hv.domains_"+when] = float64(domains)
	r.det["hv.ports_"+when] = float64(ports)
	r.det["hv.grants_"+when] = float64(grants)
	r.det["mm.used_mb_"+when] = float64(used) / (1 << 20)
}

// fsck audits one host and records every violation.
func fsck(tr *tracer, r *repeat, e *toolstack.Env, what string) {
	tr.begin("toolstack.fsck", -1)
	start := time.Now()
	vs := toolstack.Fsck(e)
	r.host["toolstack.fsck_ms"] += ms(time.Since(start))
	tr.end()
	for _, v := range vs {
		r.violate("%s: fsck: %s", what, v)
	}
}

// ---------------------------------------------------------------------
// xl-density and lightvm-density
// ---------------------------------------------------------------------

type densityInputs struct {
	hostSeed  uint64
	residents []guestSpec
	victims   []int       // resident slot destroyed by each step
	fresh     []guestSpec // each step's replacement
}

// guestSpec is one generated guest: a seeded name, and the noop image
// padded by a seeded 0–1 MiB so image load time varies as in Fig. 4.
type guestSpec struct {
	name string
	img  guest.Image
}

func guestSpecs(rng *sim.RNG, n int, seen map[string]bool) []guestSpec {
	base := guest.Noop()
	out := make([]guestSpec, n)
	for i, name := range uniqueNames(rng, n, seen) {
		out[i] = guestSpec{name: name, img: base.WithPadding(base.SizeBytes + uint64(rng.Intn(1<<20)))}
	}
	return out
}

func prepareDensity(mode toolstack.Mode) func(c *config) setupFunc {
	return func(c *config) setupFunc {
		rng := sim.NewRNG(c.seed)
		in := &densityInputs{hostSeed: rng.Uint64()}
		n := c.size.residents + rng.Intn(c.size.residents/20+1)
		seen := make(map[string]bool)
		in.residents = guestSpecs(rng, n, seen)
		in.fresh = guestSpecs(rng, c.size.steps, seen)
		in.victims = make([]int, c.size.steps)
		for i := range in.victims {
			in.victims[i] = rng.Intn(n)
		}
		return func(tr *tracer, r *repeat) (instance, error) {
			return setupDensity(mode, in, c.defect, tr, r)
		}
	}
}

type density struct {
	mode   toolstack.Mode
	in     *densityInputs
	h      *core.Host
	vms    []*toolstack.VM
	defect func(*core.Host)

	createMS   metrics.Series
	breakdown  toolstack.Breakdown // summed over successful creates
	creates    int
	createErrs int
	destroys   int
	virtStart  sim.Time
	nodes0     int
	domains0   int
}

func setupDensity(mode toolstack.Mode, in *densityInputs, defect func(*core.Host), tr *tracer, r *repeat) (instance, error) {
	h, err := core.NewHost(sched.Amd64, in.hostSeed)
	if err != nil {
		return nil, err
	}
	d := &density{mode: mode, in: in, h: h, defect: defect,
		vms: make([]*toolstack.VM, len(in.residents))}
	if err := h.EnsureFlavor(guest.Noop(), mode); err != nil {
		return nil, err
	}
	for i, g := range in.residents {
		if err := d.replenish(tr, -1); err != nil {
			return nil, err
		}
		tr.begin("toolstack.create", -1)
		vm, err := h.CreateVM(mode, g.name, g.img)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("resident %s: %w", g.name, err)
		}
		d.vms[i] = vm
	}
	d.nodes0 = h.Env.Store.NumNodes()
	d.domains0 = h.Env.HV.NumDomains()
	d.virtStart = h.Clock.Now()
	d.createMS.Values = make([]float64, 0, len(in.victims))
	recordState(r, "setup", h.Env)
	return d, nil
}

// replenish tops up the split pool ahead of a create, as the chaos
// daemon does; modes without a pool skip it.
func (d *density) replenish(tr *tracer, op int64) error {
	if !d.mode.UsesSplit() {
		return nil
	}
	tr.begin("toolstack.replenish", op)
	err := d.h.Replenish()
	tr.end()
	return err
}

func (d *density) run(tr *tracer) (attempted, failed int) {
	for step, slot := range d.in.victims {
		op := int64(step)
		tr.begin("bench.step", op)
		ok := true
		if vm := d.vms[slot]; vm != nil {
			tr.begin("toolstack.destroy", op)
			err := d.h.DestroyVM(vm)
			tr.end()
			d.vms[slot] = nil
			d.destroys++
			ok = err == nil
		}
		if err := d.replenish(tr, op); err != nil {
			ok = false
		}
		tr.begin("toolstack.create", op)
		g := d.in.fresh[step]
		vm, err := d.h.CreateVM(d.mode, g.name, g.img)
		tr.end()
		d.creates++
		if err != nil {
			d.createErrs++
			ok = false
		} else {
			d.vms[slot] = vm
			d.createMS.Add(ms(vm.CreateTime + vm.BootTime))
			b := vm.LastBreakdown
			d.breakdown.Config += b.Config
			d.breakdown.Hypervisor += b.Hypervisor
			d.breakdown.XenStore += b.XenStore
			d.breakdown.Devices += b.Devices
			d.breakdown.Load += b.Load
			d.breakdown.Toolstack += b.Toolstack
		}
		tr.end()
		if !ok {
			failed++
		}
	}
	if d.defect != nil {
		d.defect(d.h)
	}
	return len(d.in.victims), failed
}

func (d *density) audit(tr *tracer, r *repeat) {
	env := d.h.Env
	fsck(tr, r, env, d.mode.String())
	if n := env.Store.NumNodes(); n != d.nodes0 {
		r.violate("xenstore.nodes %d after churn, %d after set-up", n, d.nodes0)
	}
	if n := env.HV.NumDomains(); n != d.domains0 {
		r.violate("hv.domains %d after churn, %d after set-up", n, d.domains0)
	}
	recordState(r, "end", env)

	ok := d.creates - d.createErrs
	r.virt = virtResult{
		S:       d.h.Clock.Now().Sub(d.virtStart).Seconds(),
		P50MS:   d.createMS.Percentile(50),
		P99MS:   d.createMS.Percentile(99),
		OKRatio: ratio(float64(ok), float64(d.creates)),
	}
	per := func(t time.Duration) float64 { return ratio(ms(t), float64(ok)) }
	r.det["virt.config_ms"] = per(d.breakdown.Config)
	r.det["virt.hypervisor_ms"] = per(d.breakdown.Hypervisor)
	r.det["virt.xenstore_ms"] = per(d.breakdown.XenStore)
	r.det["virt.devices_ms"] = per(d.breakdown.Devices)
	r.det["virt.load_ms"] = per(d.breakdown.Load)
	r.det["virt.toolstack_ms"] = per(d.breakdown.Toolstack)
	r.det["toolstack.creates"] = float64(d.creates)
	r.det["toolstack.destroys"] = float64(d.destroys)
}

// ---------------------------------------------------------------------
// serve-storm
// ---------------------------------------------------------------------

// Offered load, as multiples of the calibrated capacity: 30% of the
// requests before the burst, 25% in it, the rest after (ext-overload's
// trigger shape).
const (
	steadyLoad, burstLoad = 0.7, 2.0
	preFrac, burstFrac    = 0.30, 0.25
	stormRate             = 0.9
)

var serveModes = []traffic.Mode{traffic.VMPerRequestXL, traffic.VMPerRequest}

type serveInputs struct {
	// unitGaps is the arrival schedule at a capacity of 1 request/s;
	// set-up scales it to each mode's calibrated capacity, so both
	// modes see the same schedule shape.
	unitGaps       []time.Duration
	unitT1, unitT2 time.Duration
	// deadlineUnits is the client deadline in per-request costs: a
	// seeded 29.1–30.9 around ext-overload's 30.
	deadlineUnits float64
	serveSeeds    []uint64 // one per (mode, defense) timeline
}

func prepareServe(c *config) setupFunc {
	rng := sim.NewRNG(c.seed)
	n := c.size.requests
	in := &serveInputs{
		unitT1: time.Duration(preFrac * float64(n) / steadyLoad * float64(time.Second)),
	}
	in.unitT2 = in.unitT1 + time.Duration(burstFrac*float64(n)/burstLoad*float64(time.Second))
	arr := traffic.NewPhased(rng.Uint64(), []traffic.PhaseRate{
		{Rate: steadyLoad, Until: in.unitT1},
		{Rate: burstLoad, Until: in.unitT2},
		{Rate: steadyLoad},
	})
	in.unitGaps = make([]time.Duration, n)
	for i := range in.unitGaps {
		in.unitGaps[i] = arr.Next()
	}
	for range serveModes {
		in.serveSeeds = append(in.serveSeeds, rng.Uint64(), rng.Uint64())
	}
	in.deadlineUnits = 29.1 + 1.8*rng.Float64()
	return func(tr *tracer, r *repeat) (instance, error) { return setupServe(in, tr, r) }
}

type serveTimeline struct {
	mode traffic.Mode
	cfg  traffic.Config
	gaps []time.Duration
	st   *traffic.Stats
	h    *core.Host
	err  error
}

type serve struct{ timelines []*serveTimeline }

func setupServe(in *serveInputs, tr *tracer, r *repeat) (instance, error) {
	s := &serve{}
	for mi, mode := range serveModes {
		tr.begin("traffic.calibrate", -1)
		start := time.Now()
		capacity, err := traffic.EstimateCapacity(mode, guest.Daytime())
		r.host["traffic.calibrate_ms"] += ms(time.Since(start))
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("calibrate %s: %w", mode, err)
		}
		scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) / capacity) }
		gaps := make([]time.Duration, len(in.unitGaps))
		for i, g := range in.unitGaps {
			gaps[i] = scale(g)
		}
		// Admission wall at three client deadlines.
		timeout := scale(time.Duration(in.deadlineUnits * float64(time.Second)))
		for di, defended := range []bool{false, true} {
			var def traffic.Defense
			if defended {
				def = traffic.Defense{AdaptiveAdmit: true, LatencyTarget: timeout / 3,
					RetryBudget: 0.2, PriorityShed: true, Brownout: true}
			}
			s.timelines = append(s.timelines, &serveTimeline{mode: mode, gaps: gaps, cfg: traffic.Config{
				Mode:         mode,
				Seed:         in.serveSeeds[2*mi+di],
				Requests:     len(gaps),
				MaxBacklog:   3 * timeout,
				Timeout:      timeout,
				RetryBackoff: timeout / 4,
				FaultPlan:    faults.Plan{Rate: stormRate, Kinds: []faults.Kind{faults.KindRetryStorm}},
				Defense:      def,
				PhaseBounds:  []time.Duration{scale(in.unitT1), scale(in.unitT2)},
			}})
		}
	}
	return s, nil
}

func (s *serve) run(tr *tracer) (attempted, failed int) {
	for i, tl := range s.timelines {
		cfg := tl.cfg
		cfg.Arrivals = traffic.NewTrace(tl.gaps)
		tr.begin("traffic.serve", int64(i))
		tl.st, tl.h, tl.err = traffic.Serve(cfg)
		tr.end()
		if tl.err != nil {
			attempted += cfg.Requests
			failed += cfg.Requests
			continue
		}
		attempted += tl.st.Arrived
	}
	return attempted, failed
}

func (s *serve) audit(tr *tracer, r *repeat) {
	var all metrics.Histogram
	perMode := make(map[traffic.Mode]*metrics.Histogram)
	var envs []*toolstack.Env
	var good, fresh, arrived, served, rejected, backlog, timedOut, retries int
	var virt, brownout time.Duration
	for _, tl := range s.timelines {
		what := fmt.Sprintf("%s defended=%v", tl.mode, tl.cfg.Defense.Any())
		if tl.err != nil {
			r.violate("%s: serve: %v", what, tl.err)
			continue
		}
		st := tl.st
		fsck(tr, r, tl.h.Env, what)
		envs = append(envs, tl.h.Env)
		if st.Served+st.Rejected != st.Arrived {
			r.violate("%s: served %d + rejected %d != arrived %d", what, st.Served, st.Rejected, st.Arrived)
		}
		for _, p := range st.Phases {
			good += p.Good
			fresh += p.Fresh
		}
		all.Merge(&st.Latency)
		if perMode[tl.mode] == nil {
			perMode[tl.mode] = &metrics.Histogram{}
		}
		perMode[tl.mode].Merge(&st.Latency)
		arrived += st.Arrived
		served += st.Served
		rejected += st.Rejected
		backlog += st.RejectedBacklog
		timedOut += st.TimedOut
		retries += st.Retries
		brownout += st.BrownoutTime
		virt += st.Elapsed
	}
	recordState(r, "end", envs...)
	r.virt = virtResult{
		S:       virt.Seconds(),
		P50MS:   ms(all.P50()),
		P99MS:   ms(all.P99()),
		OKRatio: ratio(float64(good), float64(fresh)),
	}
	r.det["traffic.arrived"] = float64(arrived)
	r.det["traffic.served"] = float64(served)
	r.det["traffic.rejected"] = float64(rejected)
	r.det["traffic.rejected_backlog"] = float64(backlog)
	r.det["traffic.timed_out"] = float64(timedOut)
	r.det["traffic.retries"] = float64(retries)
	r.det["traffic.brownout_ms"] = ms(brownout)
	r.det["traffic.reject_ratio"] = ratio(float64(rejected), float64(arrived))
	for mode, h := range perMode {
		r.det["virt.resp_p99_ms."+mode.String()] = ms(h.P99())
	}
}

// ---------------------------------------------------------------------
// fleet-churn
// ---------------------------------------------------------------------

type fleetInputs struct {
	cfg   cluster.ShardedConfig
	pools []cluster.HostPool
	spec  cluster.ChurnSpec
}

func prepareFleet(c *config) setupFunc {
	rng := sim.NewRNG(c.seed)
	sz := c.size
	// A seeded wave period and failure times, so each seed lays the
	// churn out differently in simulated time.
	period := 4*time.Second + time.Duration(rng.Intn(200))*time.Millisecond
	in := &fleetInputs{
		cfg: cluster.ShardedConfig{
			Machine: sched.Machine{Name: "member", Cores: 4, Dom0Cores: 1, MemoryGB: 32},
			Workers: runtime.NumCPU(),
			Seed:    rng.Uint64(),
		},
		pools: []cluster.HostPool{
			{Name: "chaos", Mode: toolstack.ModeLightVM, Hosts: sz.chaosHosts, VMs: sz.chaosVMs, Image: guest.Daytime()},
			{Name: "xl", Mode: toolstack.ModeXL, Hosts: sz.xlHosts, VMs: sz.xlVMs, Image: guest.Daytime()},
		},
		spec: cluster.ChurnSpec{
			Waves:          sz.waves,
			WavePeriod:     period,
			MigratePerWave: sz.migratePerWave,
			DepartPerWave:  sz.departPerWave,
			Drain:          60 * time.Second,
		},
	}
	for i := 0; i < 2; i++ {
		at := period + period/2 + time.Duration(i)*period + time.Duration(rng.Intn(1000))*time.Millisecond
		in.spec.FailAt = append(in.spec.FailAt, at)
	}
	return func(tr *tracer, r *repeat) (instance, error) { return setupFleet(in, tr, r) }
}

type fleet struct {
	in     *fleetInputs
	sc     *cluster.Sharded
	rep    *cluster.ChurnReport
	err    error
	churnS float64
}

func setupFleet(in *fleetInputs, tr *tracer, r *repeat) (instance, error) {
	tr.begin("cluster.new", -1)
	start := time.Now()
	sc, err := cluster.NewSharded(in.cfg, in.pools)
	r.host["cluster.new_ms"] = ms(time.Since(start))
	tr.end()
	if err != nil {
		return nil, err
	}
	return &fleet{in: in, sc: sc}, nil
}

func (f *fleet) run(tr *tracer) (attempted, failed int) {
	tr.begin("cluster.run_churn", 0)
	start := time.Now()
	f.rep, f.err = f.sc.RunChurn(f.in.spec)
	f.churnS = time.Since(start).Seconds()
	tr.end()
	if f.err != nil {
		return 1, 1
	}
	return int(f.rep.Engine.Events), 0
}

func (f *fleet) audit(tr *tracer, r *repeat) {
	if f.err != nil {
		r.violate("run churn: %v", f.err)
		return
	}
	rep := f.rep
	if rep.FsckViolated != 0 {
		r.violate("%d cross-layer fsck violations", rep.FsckViolated)
	}
	if rep.Unplaced != 0 {
		r.violate("%d VMs unplaced at stop", rep.Unplaced)
	}
	var creates, migrates metrics.Series
	var placed, requested, created, migrations int
	for i, p := range rep.Pools {
		creates.Values = append(creates.Values, p.CreateMS.Values...)
		migrates.Values = append(migrates.Values, p.MigrateMS.Values...)
		placed += p.Placed
		requested += f.in.pools[i].VMs
		created += p.Created
		migrations += p.Migrations
	}
	r.virt = virtResult{
		S:       rep.MakespanMS / 1000,
		P50MS:   creates.Percentile(50),
		P99MS:   creates.Percentile(99),
		OKRatio: ratio(float64(placed), float64(requested)),
	}
	eng := rep.Engine
	r.host["cluster.run_churn_s"] = f.churnS
	r.det["cluster.created"] = float64(created)
	r.det["cluster.migrations"] = float64(migrations)
	r.det["cluster.failovers"] = float64(rep.Failovers)
	r.det["cluster.fenced"] = float64(rep.Fenced)
	r.det["cluster.saturated"] = float64(rep.Saturated)
	r.det["cluster.unplaced"] = float64(rep.Unplaced)
	r.det["sim.events"] = float64(eng.Events)
	r.det["sim.windows"] = float64(eng.Windows)
	r.det["sim.messages"] = float64(eng.Messages)
	r.det["sim.events_per_window"] = ratio(float64(eng.Events), float64(eng.Windows))
	r.det["virt.migrate_ms_p99"] = migrates.Percentile(99)
	r.det["virt.failover_ms_p99"] = rep.FailoverMS.Percentile(99)
}

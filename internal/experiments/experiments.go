// Package experiments regenerates every table and figure of the
// paper's evaluation (§4, §6, §7). Each generator builds the full
// system on a simulated testbed machine, runs the paper's workload,
// and returns a metrics.Table whose rows mirror the original plot's
// series. Figure numbers follow the paper.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"lightvm/internal/faults"
)

// defaultSamples is the x-axis measurement-point default.
const defaultSamples = 20

// Options scales an experiment run.
type Options struct {
	// Scale multiplies the paper's guest counts (1.0 = full scale,
	// e.g. 1000 VMs for Fig. 9 and 8000 for Fig. 10). Tests use small
	// scales; the bench harness runs 1.0.
	Scale float64
	// Seed drives all randomized workload choices.
	Seed uint64
	// Samples is the number of measurement points along the x axis
	// (0 = default 20).
	Samples int
	// Parallel bounds the worker pool used by RunMany and by the
	// per-figure series pool (a figure's independent hosts/timelines
	// run concurrently). 0 means GOMAXPROCS; 1 forces fully
	// sequential execution. Results are identical either way: every
	// series owns its clock, host and RNG, and output assembly is
	// deterministic.
	Parallel int
	// Shards fixes the engine worker count for figures built on the
	// sharded cluster core (ext-cluster). 0 runs the figure's default
	// sweep over worker counts {1, 2, 8} with an in-run byte-equality
	// check between them; any explicit value runs once at that count.
	// Either way the table is identical — the worker count is an
	// execution detail of the conservative engine, never a model input.
	Shards int
	// Profile selects per-figure pprof capture (CPU/heap profiles per
	// generator plus a subsystem attribution summary on Result.Profile;
	// see profile.go). Zero value = no profiling.
	Profile ProfileOptions

	// profGate serializes profiled figures on parallel runs (CPU
	// profiling is process-global). RunMany creates it; never set by
	// callers.
	profGate chan struct{}
}

// normalize applies defaults.
func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Samples <= 0 {
		o.Samples = defaultSamples
	}
	return o
}

// workers resolves Parallel to a concrete pool size.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// clusterWorkers is the engine worker count for figures that run one
// sharded cluster per cell: Shards when pinned, else 1.
func (o Options) clusterWorkers() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return 1
}

// scaled returns max(lo, round(n×Scale)).
func (o Options) scaled(n int, lo int) int {
	v := int(float64(n) * o.Scale)
	if v < lo {
		v = lo
	}
	return v
}

// samplePoints returns ~Samples x-axis counts from 1..n inclusive,
// ending exactly at n with no duplicate final point. It is safe on
// un-normalized options (Samples ≤ 0 falls back to the default) and on
// degenerate n (n ≤ 0 yields no points), so small scales interacting
// with large Samples cannot panic or repeat n.
func (o Options) samplePoints(n int) []int {
	if n <= 0 {
		return nil
	}
	samples := o.Samples
	if samples <= 0 {
		samples = defaultSamples
	}
	if n <= samples {
		out := make([]int, n)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	step := n / samples // ≥ 1 because n > samples
	out := make([]int, 0, samples+1)
	for v := step; v <= n; v += step {
		out = append(out, v)
	}
	if len(out) == 0 || out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// Generator produces one figure/table.
type Generator func(Options) (Result, error)

// Result is a generated figure with its paper reference.
type Result struct {
	ID    string
	Paper string // what the paper reports, for EXPERIMENTS.md
	Table fmt.Stringer

	// VirtualMS is the figure's simulated makespan in milliseconds:
	// the largest final clock reading across the independent timelines
	// the generator built. Generators that track it set it; 0 means
	// not instrumented.
	VirtualMS float64
	// Wall is the real time the generator took (set by RunMany/RunAll).
	Wall time.Duration
	// Allocs is the number of heap allocations the generator performed,
	// recorded on sequential runs (Parallel == 1) only: Go exposes no
	// per-goroutine allocation counter, so parallel runs leave it 0.
	Allocs uint64
	// Profile is the per-figure pprof attribution report (nil unless
	// the run had Options.Profile enabled for this figure).
	Profile *ProfileSummary
	// CrashSites is the per-crash-point opportunity/injection tally,
	// aggregated across the figure's cells (nil unless the generator
	// arms faults.KindToolstackCrash).
	CrashSites []faults.SiteStat
	// Serving aggregates a traffic-serving figure's latency tail and
	// rejection breakdown (nil for non-serving figures). The bench
	// report carries it so benchdiff can gate tail regressions.
	Serving *ServingSummary
}

// registry of all experiments.
var registry = map[string]Generator{}

// register adds a generator (called from init functions).
func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = g
}

// IDs lists registered experiment identifiers in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, o Options) (Result, error) {
	g, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return g(o.normalize())
}

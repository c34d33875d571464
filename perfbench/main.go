// Command perfbench is the repository benchmark: it drives the
// simulator through its public layer APIs on one of four workloads and
// prints every metric by name and unit, with a correctness gate.
//
//	perfbench --workload xl-density --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer metrics and writes a Chrome
// trace-event file. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every correctness check passed. See README.md.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"lightvm/internal/core"
	"lightvm/internal/profiling"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration // timed-phase total to reach
	trace    bool
	size     sizes
	out      string // directory for the result and trace files ("" = none)
	baseline string // earlier result file to check comparability against

	// defect, when set, runs at the end of every density churn
	// (tests plant bugs behind the toolstack with it).
	defect func(*core.Host)
}

// Repeat limits: at least minRepeats repeats per run (2+2 when traced,
// alternating), and no new repeat once wallBudget has passed, so a run
// ends well inside its time limit on a slow machine.
const (
	minRepeats = 3
	maxRepeats = 500
	wallBudget = 120 * time.Second
)

// Set-up time is sampled apart from the repeats: setupSamples samples,
// each the mean of back-to-back set-ups that together take at least
// setupSampleS of CPU. A single millisecond set-up ranges over 0.5–5 ms
// within one run; a 25 ms batch averages that out.
const (
	setupSamples = 11
	setupSampleS = 0.025
)

// repeat is one set-up followed by one timed phase and its audit.
type repeat struct {
	traced bool
	// cpuS is the timed phase's process CPU seconds; wallS its wall
	// time.
	cpuS, wallS float64
	// refs are the reference kernel's CPU times sampled right after
	// the timed phase.
	refs              []float64
	attempted, failed int
	violations        []string
	allocObjects      uint64
	heapPeak          uint64
	virt              virtResult
	// det holds per-layer values that are a pure function of the seed;
	// host holds host-time values.
	det, host map[string]float64
	cpu       map[string]int64 // CPU profile flat totals (traced only)
}

// virtResult is the simulated outcome of a timed phase.
type virtResult struct {
	S       float64 // simulated seconds covered
	P50MS   float64
	P99MS   float64
	OKRatio float64
}

// opsPerCPUS is the timed phase's ops per CPU second.
func (r *repeat) opsPerCPUS() float64 {
	return ratio(float64(r.attempted), r.cpuS)
}

func (r *repeat) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// digest fingerprints everything in a repeat that must not depend on
// the host: simulated results, counts and state sizes.
func (r *repeat) digest() string {
	keys := make([]string, 0, len(r.det))
	for k := range r.det {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "attempted=%d virt=%.17g/%.17g/%.17g/%.17g\n",
		r.attempted, r.virt.S, r.virt.P50MS, r.virt.P99MS, r.virt.OKRatio)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%.17g\n", k, r.det[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark and prints the report; it
// returns the exit code (0 pass, 1 gate failure or error, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	c := parseArgs(args, stderr)
	if c == nil {
		return 2
	}
	return execute(c, stdout, stderr)
}

// parseArgs returns the run's config, or nil after reporting bad
// arguments on stderr.
func parseArgs(args []string, stderr io.Writer) *config {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed seconds to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", "", "directory for the result file and the trace file")
	baseline := fs.String("baseline", "", "earlier result file; warn when its provenance makes it incomparable")
	if err := fs.Parse(args); err != nil {
		return nil
	}
	if _, ok := lookupWorkload(*wl); !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return nil
	}
	return &config{workload: *wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, size: fullSize, out: *out, baseline: *baseline}
}

// execute runs the benchmark for c and prints the report; it returns
// the exit code.
func execute(c *config, stdout, stderr io.Writer) int {
	rep, err := runBench(c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout, c); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is a run's outcome; its JSON form is the result file.
type report struct {
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailRatio  float64            `json:"fail_ratio"`
	Repeats    int                `json:"repeats"`
	Digest     string             `json:"digest"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// Raw samples behind the medians, in run order: CPU seconds per
	// set-up, timed ops per CPU second, and the reference kernel's CPU
	// seconds that scale both to the nominal machine.
	SetupCPUS     []float64 `json:"setup_cpu_s"`
	RepeatOpsPerS []float64 `json:"repeat_ops_per_cpu_s"`
	RefS          []float64 `json:"reference_s"`
	TraceFile     string    `json:"trace_file,omitempty"`
	tracer        *tracer
}

func runBench(c *config) (*report, error) {
	w, ok := lookupWorkload(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	setup := w.prepare(c)
	begin := time.Now()
	runtime.GC()
	firstRef := referenceSeconds()
	var reps []*repeat
	var firstTracer *tracer
	var timed float64
	need := minRepeats
	if c.trace {
		need = 4
	}
	for len(reps) < need || timed < c.seconds.Seconds() {
		if len(reps) >= maxRepeats || (len(reps) >= need && time.Since(begin) > wallBudget) {
			break
		}
		// A traced run alternates untraced and traced repeats, so the
		// tracing overhead is measured against neighbours.
		var tr *tracer
		if c.trace && len(reps)%2 == 1 {
			tr = newTracer()
		}
		r, err := runRepeat(setup, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		if tr != nil && firstTracer == nil {
			firstTracer = tr
		}
		reps = append(reps, r)
		timed += r.wallS
	}
	refs := []float64{firstRef}
	for _, r := range reps {
		refs = append(refs, r.refs...)
	}
	var setups []float64
	for len(setups) < setupSamples && time.Since(begin) < wallBudget {
		runtime.GC()
		n := 0
		cpu0 := cpuSeconds()
		for n == 0 || cpuSeconds()-cpu0 < setupSampleS {
			if _, err := setup(nil, newRepeat(nil)); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
			}
			n++
		}
		setups = append(setups, (cpuSeconds()-cpu0)/float64(n))
	}
	rep := summarize(c, reps, setups, refs)
	rep.tracer = firstTracer
	return rep, nil
}

func newRepeat(tr *tracer) *repeat {
	return &repeat{traced: tr != nil, det: map[string]float64{}, host: map[string]float64{}}
}

// runRepeat sets up a fresh system, runs its timed phase and audits it.
func runRepeat(setup setupFunc, tr *tracer) (*repeat, error) {
	r := newRepeat(tr)
	runtime.GC()
	tr.begin("bench.setup", -1)
	inst, err := setup(tr, r)
	tr.end()
	if err != nil {
		return nil, err
	}

	runtime.GC()
	tr.resetStats()
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var hw heapWatch
	hw.start()
	before := readRuntime()
	cpu0 := cpuSeconds()
	start := time.Now()
	r.attempted, r.failed = inst.run(tr)
	r.wallS = time.Since(start).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	after := readRuntime()
	if tr != nil {
		pprof.StopCPUProfile()
	}
	r.heapPeak = hw.stop()
	// hw.stop forced a collection, so no concurrent GC work lands in
	// the reference kernel's CPU time. Sampling for a fixed share of
	// the timed phase gives long repeats as many samples per second of
	// work as short ones.
	for spent := 0.0; len(r.refs) == 0 || spent < refShare*r.cpuS; {
		s := referenceSeconds()
		r.refs = append(r.refs, s)
		spent += s
	}
	r.allocObjects = after.allocObjects - before.allocObjects
	r.host["runtime.gc_cpu_share"] = gcShare(before, after)
	r.host["runtime.alloc_mb_per_op"] = ratio(float64(after.allocBytes-before.allocBytes)/(1<<20), float64(r.attempted))

	tr.begin("bench.audit", -1)
	inst.audit(tr, r)
	tr.end()
	if tr != nil {
		p, err := profiling.Parse(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		r.cpu = p.Flat(p.SampleType("cpu"), nil)
		layerFromTrace(tr, r)
	}
	runtime.KeepAlive(inst)
	return r, nil
}

// spanNames are the spans opened in the timed phase and the audit;
// each gets a span.<name>.self_ms per-layer metric. Set-up spans
// (bench.setup, traffic.calibrate, cluster.new) appear in the trace
// file only; their time is in traffic.calibrate_ms and cluster.new_ms.
var spanNames = []string{
	"bench.step", "bench.audit",
	"toolstack.create", "toolstack.destroy", "toolstack.replenish", "toolstack.fsck",
	"traffic.serve", "cluster.run_churn",
}

// layerFromTrace adds the span-derived per-layer values of a traced
// repeat (its timed phase and audit).
func layerFromTrace(tr *tracer, r *repeat) {
	for _, call := range []string{"create", "destroy", "replenish"} {
		r.host["toolstack."+call+"_us_p50"] = tr.quantileUS("toolstack."+call, 50)
		r.host["toolstack."+call+"_us_p99"] = tr.quantileUS("toolstack."+call, 99)
	}
	r.host["traffic.serve_ms_p50"] = tr.quantileUS("traffic.serve", 50) / 1000
	for _, name := range spanNames {
		r.host["span."+name+".self_ms"] = tr.selfMS(name)
	}
}

// cpuLayers are the buckets whose share of the traced run's CPU
// profile is reported as cpu_share.<bucket>: simulator packages, the Go
// runtime (GC, allocation, map hashing), and the rest of the standard
// library (sorting, fmt, strconv).
var cpuLayers = []string{"xenstore", "xenbus", "hv", "mm", "noxs", "devd", "toolstack",
	"traffic", "metrics", "faults", "sim", "cluster", "migrate", "runtime", "std"}

func summarize(c *config, reps []*repeat, setups, refs []float64) *report {
	rep := &report{
		Provenance: collectProvenance(c.workload, c.seed),
		Repeats:    len(reps),
		Metrics:    map[string]float64{},
		SetupCPUS:  setups,
		RefS:       refs,
	}
	digests := map[string]int{}
	for i, r := range reps {
		rep.Attempted += r.attempted
		rep.Failed += r.failed + len(r.violations)
		for _, v := range r.violations {
			rep.Violations = append(rep.Violations, fmt.Sprintf("repeat %d: %s", i, v))
		}
		digests[r.digest()]++
		rep.RepeatOpsPerS = append(rep.RepeatOpsPerS, r.opsPerCPUS())
	}
	rep.Digest = reps[0].digest()
	if len(digests) > 1 {
		rep.Failed++
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("simulated results differ across the %d repeats of one seed (%d digests)", len(reps), len(digests)))
	}
	rep.FailRatio = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Correct = rep.Failed == 0

	pick := func(traced bool) []*repeat {
		var out []*repeat
		for _, r := range reps {
			if r.traced == traced {
				out = append(out, r)
			}
		}
		return out
	}
	med := func(rs []*repeat, f func(*repeat) float64) float64 {
		vals := make([]float64, len(rs))
		for i, r := range rs {
			vals[i] = f(r)
		}
		return median(vals)
	}
	opsPerS := (*repeat).opsPerCPUS
	m := rep.Metrics
	untraced := pick(false)
	if !c.trace {
		v := reps[0].virt
		// Scale host time to the nominal machine (see refNominalS).
		slowdown := median(refs) / refNominalS
		m["setup_s"] = ratio(median(setups), slowdown)
		m["sim_ops_per_s"] = med(reps, opsPerS) * slowdown
		m["allocs_per_op"] = med(reps, func(r *repeat) float64 { return ratio(float64(r.allocObjects), float64(r.attempted)) })
		m["heap_peak_mb"] = med(reps, func(r *repeat) float64 { return float64(r.heapPeak) / (1 << 20) })
		m["virt_s"] = v.S
		m["virt_p50_ms"] = v.P50MS
		m["virt_p99_ms"] = v.P99MS
		m["virt_ok_ratio"] = v.OKRatio
		return rep
	}

	traced := pick(true)
	for _, d := range perLayer {
		name := d.name
		m[name] = med(traced, func(r *repeat) float64 {
			if v, ok := r.det[name]; ok {
				return v
			}
			return r.host[name]
		})
	}
	flat := map[string]int64{}
	for _, r := range traced {
		for fn, v := range r.cpu {
			flat[fn] += v
		}
	}
	var total int64
	subsystems := profiling.SubsystemTotals(flat)
	for _, v := range subsystems {
		total += v
	}
	for _, l := range cpuLayers {
		key := "internal/" + l
		if l == "runtime" || l == "std" {
			key = l
		}
		m["cpu_share."+l] = ratio(float64(subsystems[key]), float64(total))
	}
	m["trace.overhead_ratio"] = ratio(med(untraced, opsPerS), med(traced, opsPerS))
	return rep
}

// print writes the human-readable table, provenance and the result
// line, plus the result and trace files when an output directory is
// set.
func (rep *report) print(stdout io.Writer, c *config) error {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	p := rep.Provenance
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%v repeats=%d digest=%s\n",
		c.workload, c.seed, c.trace, rep.Repeats, rep.Digest)
	fmt.Fprintf(stdout, "provenance: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s dirty=%s\n",
		p.CPUModel, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Revision, p.Dirty)
	fmt.Fprintf(stdout, "raw samples: set-up cpu s %.4g\n             ops/cpu s %.5g\n             reference s %.4g\n",
		rep.SetupCPUS, rep.RepeatOpsPerS, rep.RefS)
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", d.name, rep.Metrics[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "  %-34s %16.6g fraction (%d failed of %d attempted)\n", "fail_ratio", rep.FailRatio, rep.Failed, rep.Attempted)
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "GATE FAIL: %s\n", v)
	}

	if c.baseline != "" {
		if err := checkBaseline(stdout, c.baseline, rep); err != nil {
			return err
		}
	}
	if c.out != "" {
		if err := rep.writeFiles(c); err != nil {
			return err
		}
		if rep.TraceFile != "" {
			fmt.Fprintf(stdout, "trace: %s\n", rep.TraceFile)
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{rep.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func (rep *report) writeFiles(c *config) error {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d", c.workload, c.seed)
	if c.trace {
		base += "-traced"
	}
	if rep.tracer != nil {
		rep.TraceFile = filepath.Join(c.out, base+".trace.json")
		if err := rep.tracer.writeChrome(rep.TraceFile, rep.Provenance); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.out, base+".result.json"), append(b, '\n'), 0o644)
}

// checkBaseline says whether an earlier result is comparable with this
// one: host-time metrics need the same host provenance, and the
// simulated results of the same seed must carry the same digest.
func checkBaseline(stdout io.Writer, path string, rep *report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if diff := incomparable(base.Provenance, rep.Provenance); len(diff) > 0 {
		fmt.Fprintf(stdout, "NOT COMPARABLE with %s: %s differ; host-time metrics cannot be compared\n",
			path, strings.Join(diff, ", "))
	} else {
		fmt.Fprintf(stdout, "comparable with %s (same host provenance)\n", path)
	}
	if base.Provenance.Seed == rep.Provenance.Seed && base.Provenance.Workload == rep.Provenance.Workload &&
		base.Digest != "" && base.Digest != rep.Digest {
		fmt.Fprintf(stdout, "simulated results changed against %s: digest %s -> %s\n", path, base.Digest, rep.Digest)
	}
	return nil
}

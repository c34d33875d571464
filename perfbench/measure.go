package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// runtime/metrics samples read around every timed phase.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// runtimeReading is one read of runtimeSamples.
type runtimeReading struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeReading{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		idleCPU:      s[4].Value.Float64(),
	}
}

// gcShare is the GC's share of the busy CPU time between two reads.
func gcShare(a, b runtimeReading) float64 {
	busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	if busy <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / busy
}

// cpuSeconds is the process's user+system CPU time. Host-time metrics
// use it rather than wall time: on a shared machine the hypervisor
// steals a varying part of each vCPU, which swings wall-clock rates by
// ±15% between runs while CPU time moves a few percent.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// The machine's speed drifts while a run goes on: on a shared host,
// neighbours contend for caches and memory, and the simulator's
// map-, allocation- and string-heavy code runs up to ±20% slower or
// faster from one minute to the next with no steal time recorded.
// Host-time metrics are therefore scaled to a nominal machine speed,
// measured with a fixed reference kernel (standard library only, so no
// change to the simulator can change it) timed at the start of a run
// and after every timed phase: a metric is reported as it would read on a machine where the
// kernel takes refNominalS of CPU. On a 2-vCPU Xeon VM the spread of
// sim_ops_per_s over ten runs went from 3–20% of the median unscaled to
// 2–13% scaled (README.md, Steadiness).
const refNominalS = 0.050

// refShare is the reference sampling time per timed-phase CPU second
// (at least one sample per repeat).
const refShare = 0.05

// The reference kernel's data, built once. The kernel itself does not
// allocate, so it never triggers or waits for a collection and its time
// does not depend on the simulator's heap.
var (
	refKeys   = make([]string, 20000)
	refSorted = make([]string, len(refKeys))
	refMap    = make(map[string]int, len(refKeys))
	refSink   int
)

func init() {
	for i := range refKeys {
		refKeys[i] = "k" + strconv.Itoa(i*7919%100003)
	}
}

// referenceSeconds is the CPU time of one run of the reference kernel:
// fill a 20,000-entry string map, sort its keys, read it back, six
// times over.
func referenceSeconds() float64 {
	start := cpuSeconds()
	for round := 0; round < 6; round++ {
		clear(refMap)
		for i, k := range refKeys {
			refMap[k] = i
		}
		copy(refSorted, refKeys)
		slices.Sort(refSorted)
		for _, k := range refSorted {
			refSink += refMap[k]
		}
	}
	return cpuSeconds() - start
}

func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch records the peak live heap over a timed phase. The live
// heap only changes when a GC cycle ends, so instead of polling it
// re-arms a finalizer on a sentinel object after every cycle and reads
// the fresh value there: no sampler goroutine, no cost between cycles.
type heapWatch struct {
	gen  atomic.Uint64 // sentinels of other generations end the chain
	peak atomic.Uint64
}

type gcSentinel struct {
	gen uint64
	_   [32]byte // past the tiny allocator, which may never finalize
}

func (w *heapWatch) start() {
	w.peak.Store(liveHeapBytes())
	w.arm(w.gen.Add(1))
}

func (w *heapWatch) arm(gen uint64) {
	runtime.SetFinalizer(&gcSentinel{gen: gen}, w.fire)
}

func (w *heapWatch) fire(s *gcSentinel) {
	if s.gen != w.gen.Load() {
		return // a stopped watch's last sentinel: let the chain end
	}
	w.observe(liveHeapBytes())
	w.arm(s.gen)
}

func (w *heapWatch) observe(v uint64) {
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends the watch. A forced collection adds the end-of-phase live
// heap, so state that only grows is counted even when no cycle ran
// after its last increment. Returns the peak in bytes.
func (w *heapWatch) stop() uint64 {
	gen := w.gen.Load()
	runtime.GC()
	w.observe(liveHeapBytes())
	w.gen.CompareAndSwap(gen, gen+1)
	return w.peak.Load()
}

// quantile is the nearest-rank p-th percentile (0 < p <= 100) of vals;
// vals is sorted in place. Empty input gives 0.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	return vals[rank-1]
}

// median of vals (mean of the middle pair for even counts), sorting a
// copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// provenance identifies the machine, toolchain and source a result came
// from. Two results are comparable only when the host fields match.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"git_revision"`
	Dirty      string `json:"git_dirty"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
}

func collectProvenance(workload string, seed uint64) provenance {
	p := provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Revision:   "unknown",
		Dirty:      "unknown",
		Workload:   workload,
		Seed:       seed,
	}
	// The go command stamps VCS state when it builds inside a git
	// work tree; a plain source checkout leaves both unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// incomparable lists the host fields in which two provenances differ;
// host-time metrics from such results must not be compared.
func incomparable(a, b provenance) []string {
	var out []string
	if a.CPUModel != b.CPUModel {
		out = append(out, "cpu_model")
	}
	if a.NProc != b.NProc {
		out = append(out, "nproc")
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		out = append(out, "gomaxprocs")
	}
	if a.GoVersion != b.GoVersion {
		out = append(out, "go_version")
	}
	if a.GOARCH != b.GOARCH {
		out = append(out, "goarch")
	}
	if a.Workload != b.Workload {
		out = append(out, "workload")
	}
	return out
}

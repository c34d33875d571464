package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// tracer records a span around every public call the benchmark makes
// into the simulator. The workloads are closed loops on one goroutine,
// so spans nest strictly and a stack gives each one its parent. Spans
// are kept in memory (up to maxKeptSpans) and written out once, at
// exit, as Chrome trace-event JSON. A nil *tracer records nothing, so
// untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	stack []openSpan
	kept  []spanRecord
	// dropped counts spans past maxKeptSpans: still in the stats,
	// missing from the trace file.
	dropped int
	nextID  int64
	stats   map[string]*spanStats
}

// maxKeptSpans bounds the trace file (~15 MB of JSON).
const maxKeptSpans = 100_000

type openSpan struct {
	id    int64
	name  string
	op    int64
	start time.Duration
	child time.Duration // time covered by finished child spans
}

type spanRecord struct {
	ID     int64
	Parent int64 // 0 = root
	Name   string
	Op     int64
	Start  time.Duration
	End    time.Duration
}

// spanStats aggregates one span name since the last resetStats.
type spanStats struct {
	durs []float64 // µs per span
	self time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stats: make(map[string]*spanStats)}
}

// begin opens a span named after the layer call it wraps; op is the
// workload operation it belongs to (-1 for set-up and audits).
func (t *tracer) begin(name string, op int64) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, name: name, op: op, start: time.Since(t.epoch)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - s.start
	var parent int64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	st := t.stats[s.name]
	if st == nil {
		st = &spanStats{}
		t.stats[s.name] = st
	}
	st.durs = append(st.durs, float64(dur)/float64(time.Microsecond))
	st.self += dur - s.child
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRecord{ID: s.id, Parent: parent, Name: s.name, Op: s.op, Start: s.start, End: now})
	} else {
		t.dropped++
	}
}

// resetStats starts a new aggregation window (the timed phase); kept
// spans are unaffected.
func (t *tracer) resetStats() {
	if t != nil {
		t.stats = make(map[string]*spanStats)
	}
}

// quantileUS is the p-th percentile duration of name's spans, in µs.
func (t *tracer) quantileUS(name string, p float64) float64 {
	if st := t.stats[name]; st != nil {
		return quantile(st.durs, p)
	}
	return 0
}

// selfMS is the total self time of name's spans, in ms: their duration
// minus the part their child spans cover.
func (t *tracer) selfMS(name string) float64 {
	if st := t.stats[name]; st != nil {
		return float64(st.self) / float64(time.Millisecond)
	}
	return 0
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; ts and dur are in µs.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the kept spans as a Chrome trace-event file that
// chrome://tracing and Perfetto open.
func (t *tracer) writeChrome(path string, meta any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.kept {
		ev := chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(b)
	}
	mb, err := json.Marshal(map[string]any{"benchmark": meta, "dropped_spans": t.dropped})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, `],"otherData":%s}`, mb)
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layerOf is the module prefix of a span name ("toolstack.create" →
// "toolstack").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

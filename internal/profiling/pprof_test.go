package profiling

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// --- end-to-end against runtime/pprof output ---

// spin burns CPU until deadline so the profiler has something to
// sample.
//
//go:noinline
func spin(d time.Duration) float64 {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1e4; i++ {
			x = x*1.000000001 + 0.000001
		}
	}
	return x
}

func TestParseCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU profile capture needs real wall time")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("start cpu profile: %v", err)
	}
	// Labeled and unlabeled work, to exercise label filtering.
	pprof.Do(context.Background(), pprof.Labels("figure", "figTest"), func(context.Context) {
		spin(250 * time.Millisecond)
	})
	spin(100 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cpu := p.SampleType("cpu")
	if cpu < 0 {
		t.Fatalf("no cpu sample type in %v", p.SampleTypes)
	}
	if p.Period <= 0 || p.PeriodType.Type != "cpu" {
		t.Errorf("period = %d, period type = %+v", p.Period, p.PeriodType)
	}
	total := p.Total(cpu, nil)
	if total <= 0 {
		t.Fatal("no cpu samples captured (machine too slow or profiler broken)")
	}
	labeled := p.Total(cpu, func(s *Sample) bool { return s.Label("figure") == "figTest" })
	if labeled <= 0 {
		t.Fatal("no samples carry the figure label")
	}
	if labeled > total {
		t.Fatalf("labeled %d > total %d", labeled, total)
	}
	// The busy loop should dominate the labeled slice and resolve to
	// this package's spin function.
	flat := p.Flat(cpu, func(s *Sample) bool { return s.Label("figure") == "figTest" })
	var spinNS int64
	for fn, v := range flat {
		if strings.HasSuffix(fn, "profiling.spin") {
			spinNS += v
		}
	}
	if spinNS == 0 {
		t.Fatalf("spin not the leaf of any labeled sample; flat = %v", flat)
	}
}

// allocForProfile allocates n bytes in chunks so heap profiles carry
// this frame as the allocation site.
//
//go:noinline
func allocForProfile(n int) [][]byte {
	var keep [][]byte
	for i := 0; i < n/(64<<10); i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	return keep
}

func TestParseHeapProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 16 << 10
	defer func() { runtime.MemProfileRate = old }()

	sink := allocForProfile(8 << 20)
	runtime.GC() // flush recent allocations into the profile
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatalf("write heap profile: %v", err)
	}
	_ = sink

	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ai := p.SampleType("alloc_space")
	if ai < 0 {
		t.Fatalf("no alloc_space sample type in %v", p.SampleTypes)
	}
	flat := p.Flat(ai, nil)
	var allocB int64
	for fn, v := range flat {
		if strings.HasSuffix(fn, "profiling.allocForProfile") {
			allocB += v
		}
	}
	// 8 MB allocated at a 16 KB sampling rate: the site cannot be
	// missed, though the sampled value is approximate.
	if allocB < 1<<20 {
		t.Fatalf("allocForProfile charged only %d bytes; flat = %v", allocB, flat)
	}
}

// --- decoder unit tests on hand-encoded messages ---

// protoBuf is a minimal protobuf writer for constructing test
// profiles.
type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(field int, v uint64) {
	b.key(field, 0)
	b.uvarint(v)
}

func (b *protoBuf) msg(field int, body []byte) {
	b.key(field, 2)
	b.uvarint(uint64(len(body)))
	b.Write(body)
}

func (b *protoBuf) str(field int, s string) { b.msg(field, []byte(s)) }

func (b *protoBuf) key(field, wire int) { b.uvarint(uint64(field<<3 | wire)) }

func (b *protoBuf) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// buildTestProfile encodes a one-sample profile by hand, using packed
// repeated fields for the sample (as runtime/pprof does) and a label.
func buildTestProfile(t testing.TB) []byte {
	t.Helper()
	var p protoBuf
	// string_table: index 0 must be "".
	for _, s := range []string{"", "cpu", "nanoseconds", "lightvm/internal/sched.(*CPU).Tick", "figure", "fig42"} {
		p.str(6, s)
	}
	var vt protoBuf
	vt.varint(1, 1) // type = "cpu"
	vt.varint(2, 2) // unit = "nanoseconds"
	p.msg(1, vt.Bytes())
	var fn protoBuf
	fn.varint(1, 7) // function id
	fn.varint(2, 3) // name
	p.msg(5, fn.Bytes())
	var line protoBuf
	line.varint(1, 7) // function_id
	var loc protoBuf
	loc.varint(1, 9) // location id
	loc.msg(4, line.Bytes())
	p.msg(4, loc.Bytes())
	var label protoBuf
	label.varint(1, 4) // key = "figure"
	label.varint(2, 5) // str = "fig42"
	var sample protoBuf
	var packedLocs protoBuf
	packedLocs.uvarint(9)
	sample.msg(1, packedLocs.Bytes()) // packed location_id
	var packedVals protoBuf
	packedVals.uvarint(12345)
	sample.msg(2, packedVals.Bytes()) // packed value
	sample.msg(3, label.Bytes())
	p.msg(2, sample.Bytes())
	// A second sample with unpacked (wire-type-0) encoding.
	var sample2 protoBuf
	sample2.varint(1, 9)
	sample2.varint(2, 55)
	p.msg(2, sample2.Bytes())
	p.varint(12, 10000000) // period
	return p.Bytes()
}

func TestParseHandEncoded(t *testing.T) {
	p, err := Parse(buildTestProfile(t))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(p.SampleTypes) != 1 || p.SampleTypes[0] != (ValueType{"cpu", "nanoseconds"}) {
		t.Fatalf("sample types = %+v", p.SampleTypes)
	}
	if len(p.Samples) != 2 {
		t.Fatalf("samples = %d", len(p.Samples))
	}
	if got := p.Samples[0].Label("figure"); got != "fig42" {
		t.Fatalf("label = %q", got)
	}
	if p.LeafFunction(&p.Samples[0]) != "lightvm/internal/sched.(*CPU).Tick" {
		t.Fatalf("leaf = %q", p.LeafFunction(&p.Samples[0]))
	}
	if p.Samples[1].Values[0] != 55 || p.Samples[1].LocationIDs[0] != 9 {
		t.Fatalf("unpacked sample = %+v", p.Samples[1])
	}
	flat := p.Flat(0, nil)
	if flat["lightvm/internal/sched.(*CPU).Tick"] != 12345+55 {
		t.Fatalf("flat = %v", flat)
	}
	if p.Period != 10000000 {
		t.Fatalf("period = %d", p.Period)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte{0x1f, 0x8b, 0xff}); err == nil {
		t.Fatal("truncated gzip accepted")
	}
	// Wire type 2 with a length past the buffer end.
	if _, err := Parse([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Fatal("truncated message accepted")
	}
	// Wire type 2 with a length ≥ 2⁶³, which turns negative as an int
	// (found by FuzzParse; it used to panic slicing the buffer).
	if _, err := Parse([]byte("\xb20\xd9\U00032bed\x8fײ\xab\x010")); err == nil {
		t.Fatal("huge length accepted")
	}
}

func TestFlatBadIndex(t *testing.T) {
	p, err := Parse(buildTestProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Flat(-1, nil); len(got) != 0 {
		t.Fatalf("Flat(-1) = %v", got)
	}
	if got := p.Total(7, nil); got != 0 {
		t.Fatalf("Total(out of range) = %d", got)
	}
	if p.SampleType("alloc_space") != -1 {
		t.Fatal("phantom sample type found")
	}
}

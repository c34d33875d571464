package profiling

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// FuzzParse throws arbitrary bytes at the profile decoder, which reads
// files from disk. Seed corpus: testdata/fuzz/FuzzParse (checked in)
// plus the hand-encoded profile, raw and gzipped, below; `make
// fuzz-smoke` runs it for 20s. Invariants: nothing panics, Parse
// returns exactly one of a profile and an error, and a parsed profile
// can be queried.
func FuzzParse(f *testing.F) {
	hand := buildTestProfile(f)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(hand); err != nil {
		f.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(hand)
	f.Add(gz.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if (p == nil) == (err == nil) {
			t.Fatalf("Parse = %v, %v: want exactly one of a profile and an error", p, err)
		}
		if p == nil {
			return
		}
		// One value index in range and one past the end: a pass per
		// sample type would make the check quadratic in the input.
		for _, vi := range []int{0, len(p.SampleTypes)} {
			p.Flat(vi, nil)
			p.Total(vi, nil)
		}
	})
}

// Package profiling decodes pprof protobuf profiles and attributes
// their samples to simulator subsystems by package path. The bench
// harness uses it to turn the raw per-figure .pb.gz files written by
// runtime/pprof into the per-figure attribution report carried in
// Result.Profile (top subsystems by flat CPU time / heap bytes).
//
// The decoder is deliberately minimal: it understands exactly the
// subset of the pprof wire format that runtime/pprof emits — sample
// types, samples (with goroutine labels), locations, functions and the
// string table — and nothing else (no mappings, no line numbers, no
// symbolization). The full pprof toolchain lives outside the module
// (`go tool pprof` opens the same files); depending on
// github.com/google/pprof from the simulator would drag in a vendor
// tree for what is ~200 lines of varint walking.
package profiling

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// ValueType names one sample value dimension (e.g. cpu/nanoseconds,
// alloc_space/bytes).
type ValueType struct {
	Type string
	Unit string
}

// Sample is one stack sample: the leaf-first location stack, one value
// per sample type, and any goroutine labels in effect when it was
// taken.
type Sample struct {
	// LocationIDs is the call stack, leaf first (pprof convention).
	LocationIDs []uint64
	// Values holds one value per Profile.SampleTypes entry.
	Values []int64
	// Labels are the sample's string-valued pprof labels (CPU profiles
	// only; the runtime does not label memory profiles).
	Labels map[string]string
}

// Label returns the sample's value for a string label key ("" if
// absent).
func (s *Sample) Label(key string) string { return s.Labels[key] }

// location is the decoded subset of a pprof Location: its innermost
// (leaf-most inline) function.
type location struct {
	id     uint64
	funcID uint64 // leaf line's function; 0 if the location has no lines
}

// function is the decoded subset of a pprof Function.
type function struct {
	id   uint64
	name string
}

// Profile is a decoded pprof profile.
type Profile struct {
	SampleTypes   []ValueType
	Samples       []Sample
	DurationNanos int64
	Period        int64
	PeriodType    ValueType

	locations map[uint64]location
	functions map[uint64]function
}

// Parse decodes a pprof profile. The input may be gzipped (as
// runtime/pprof writes it) or raw protobuf.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profiling: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profiling: gunzip: %w", err)
		}
		data = raw
	}
	p := &Profile{
		locations: make(map[uint64]location),
		functions: make(map[uint64]function),
	}
	var strTable []string
	// First pass: the string table must be complete before labels and
	// value types can be resolved, so collect raw sub-messages first.
	var rawSampleTypes, rawSamples, rawLocations, rawFunctions [][]byte
	var rawPeriodType []byte
	err := walkFields(data, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1:
			rawSampleTypes = append(rawSampleTypes, msg)
		case 2:
			rawSamples = append(rawSamples, msg)
		case 4:
			rawLocations = append(rawLocations, msg)
		case 5:
			rawFunctions = append(rawFunctions, msg)
		case 6:
			strTable = append(strTable, string(msg))
		case 10:
			p.DurationNanos = int64(v)
		case 11:
			rawPeriodType = msg
		case 12:
			p.Period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strTable)) {
			return strTable[i]
		}
		return ""
	}
	parseValueType := func(msg []byte) (ValueType, error) {
		var vt ValueType
		err := walkFields(msg, func(field int, v uint64, _ []byte) error {
			switch field {
			case 1:
				vt.Type = str(v)
			case 2:
				vt.Unit = str(v)
			}
			return nil
		})
		return vt, err
	}
	for _, msg := range rawSampleTypes {
		vt, err := parseValueType(msg)
		if err != nil {
			return nil, fmt.Errorf("profiling: sample_type: %w", err)
		}
		p.SampleTypes = append(p.SampleTypes, vt)
	}
	if rawPeriodType != nil {
		vt, err := parseValueType(rawPeriodType)
		if err != nil {
			return nil, fmt.Errorf("profiling: period_type: %w", err)
		}
		p.PeriodType = vt
	}
	for _, msg := range rawFunctions {
		var fn function
		err := walkFields(msg, func(field int, v uint64, _ []byte) error {
			switch field {
			case 1:
				fn.id = v
			case 2:
				fn.name = str(v)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("profiling: function: %w", err)
		}
		p.functions[fn.id] = fn
	}
	for _, msg := range rawLocations {
		var loc location
		sawLine := false
		err := walkFields(msg, func(field int, v uint64, sub []byte) error {
			switch field {
			case 1:
				loc.id = v
			case 4:
				// Line; the first entry is the innermost inline frame.
				if sawLine {
					return nil
				}
				sawLine = true
				return walkFields(sub, func(f int, lv uint64, _ []byte) error {
					if f == 1 {
						loc.funcID = lv
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("profiling: location: %w", err)
		}
		p.locations[loc.id] = loc
	}
	for _, msg := range rawSamples {
		var s Sample
		err := walkFields(msg, func(field int, v uint64, sub []byte) error {
			switch field {
			case 1:
				if sub != nil {
					ids, err := packedUvarints(sub)
					if err != nil {
						return err
					}
					s.LocationIDs = append(s.LocationIDs, ids...)
				} else {
					s.LocationIDs = append(s.LocationIDs, v)
				}
			case 2:
				if sub != nil {
					vals, err := packedUvarints(sub)
					if err != nil {
						return err
					}
					for _, u := range vals {
						s.Values = append(s.Values, int64(u))
					}
				} else {
					s.Values = append(s.Values, int64(v))
				}
			case 3:
				var key, val string
				err := walkFields(sub, func(f int, lv uint64, _ []byte) error {
					switch f {
					case 1:
						key = str(lv)
					case 2:
						val = str(lv)
					}
					return nil
				})
				if err != nil {
					return err
				}
				if val != "" {
					if s.Labels == nil {
						s.Labels = make(map[string]string)
					}
					s.Labels[key] = val
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("profiling: sample: %w", err)
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// ParseFile reads and decodes a profile written by runtime/pprof.
func ParseFile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// SampleType returns the index of the named sample value (e.g. "cpu",
// "alloc_space"), or -1 if the profile does not carry it.
func (p *Profile) SampleType(name string) int {
	for i, vt := range p.SampleTypes {
		if vt.Type == name {
			return i
		}
	}
	return -1
}

// LeafFunction resolves a sample's leaf (innermost) function name; ""
// when the stack is empty or unsymbolized.
func (p *Profile) LeafFunction(s *Sample) string {
	if len(s.LocationIDs) == 0 {
		return ""
	}
	loc, ok := p.locations[s.LocationIDs[0]]
	if !ok {
		return ""
	}
	return p.functions[loc.funcID].name
}

// Flat charges each sample's vi-th value to its leaf function and
// returns the per-function totals. A nil keep includes every sample;
// otherwise only samples keep returns true for are counted (used to
// restrict a CPU profile to one figure's goroutine-label slice).
func (p *Profile) Flat(vi int, keep func(*Sample) bool) map[string]int64 {
	out := make(map[string]int64)
	if vi < 0 {
		return out
	}
	for i := range p.Samples {
		s := &p.Samples[i]
		if vi >= len(s.Values) {
			continue
		}
		if keep != nil && !keep(s) {
			continue
		}
		name := p.LeafFunction(s)
		if name == "" {
			name = "(unknown)"
		}
		out[name] += s.Values[vi]
	}
	return out
}

// Total sums the vi-th value over the kept samples (nil keep = all).
func (p *Profile) Total(vi int, keep func(*Sample) bool) int64 {
	var total int64
	if vi < 0 {
		return 0
	}
	for i := range p.Samples {
		s := &p.Samples[i]
		if vi >= len(s.Values) {
			continue
		}
		if keep != nil && !keep(s) {
			continue
		}
		total += s.Values[vi]
	}
	return total
}

// walkFields iterates a protobuf message's fields. For varint fields
// the callback receives the value in v (msg nil); for length-delimited
// fields it receives the bytes in msg (v 0). Fixed32/fixed64 fields are
// skipped (the pprof schema runtime/pprof emits has none we need).
func walkFields(buf []byte, fn func(field int, v uint64, msg []byte) error) error {
	for pos := 0; pos < len(buf); {
		key, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return fmt.Errorf("bad field key at offset %d", pos)
		}
		pos += n
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0: // varint
			v, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			pos += n
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if pos+8 > len(buf) {
				return fmt.Errorf("truncated fixed64 in field %d", field)
			}
			pos += 8
		case 2: // length-delimited
			l, n := binary.Uvarint(buf[pos:])
			// Compare in uint64: a length ≥ 2⁶³ would turn negative as
			// an int and slip past the bound.
			if n <= 0 || l > uint64(len(buf)-pos-n) {
				return fmt.Errorf("bad length in field %d", field)
			}
			pos += n
			if err := fn(field, 0, buf[pos:pos+int(l)]); err != nil {
				return err
			}
			pos += int(l)
		case 5: // fixed32
			if pos+4 > len(buf) {
				return fmt.Errorf("truncated fixed32 in field %d", field)
			}
			pos += 4
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// packedUvarints decodes a packed repeated varint payload.
func packedUvarints(buf []byte) ([]uint64, error) {
	var out []uint64
	for pos := 0; pos < len(buf); {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint at offset %d", pos)
		}
		out = append(out, v)
		pos += n
	}
	return out, nil
}

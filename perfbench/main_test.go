package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lightvm/internal/core"
)

// tinySize keeps every workload to a few milliseconds per repeat.
var tinySize = sizes{
	residents: 40, steps: 60,
	requests:   120,
	chaosHosts: 4, chaosVMs: 200, xlHosts: 2, xlVMs: 8,
	waves: 2, migratePerWave: 4, departPerWave: 2,
}

// tinyConfig is a minimal run at tinySize: the fewest repeats allowed.
func tinyConfig(workload string, seed uint64, trace bool) *config {
	return &config{workload: workload, seed: seed, seconds: time.Millisecond, trace: trace, size: tinySize}
}

// resultLine parses the last line of the benchmark's output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// executeTiny runs c and parses the last line of its output.
func executeTiny(t *testing.T, c *config) (int, string, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(c, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

// Every workload, traced and untraced, emits exactly its metric list
// with the declared units, passes its gate, and writes a Chrome trace
// file when traced.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				c := tinyConfig(w.name, 7, trace)
				c.out = t.TempDir()
				code, text, res := executeTiny(t, c)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, text)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
					return
				}
				data, err := os.ReadFile(filepath.Join(c.out, w.name+"-seed7-traced.trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Fatalf("trace file: %v, %d events", err, len(tf.TraceEvents))
				}
				for _, ev := range tf.TraceEvents {
					if ev.Ph != "X" || ev.Dur < 0 || ev.Args["id"] == nil || ev.Args["parent"] == nil || ev.Args["op"] == nil {
						t.Fatalf("malformed event %+v", ev)
					}
				}
			})
		}
	}
}

// The Go metric catalog and BENCHMARK.json must list the same metrics.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// Damage planted behind the toolstack's back must trip the gate and
// make the run exit non-zero with correct=false: a domain destroyed
// directly in the hypervisor shows in the domain count, store litter
// in fsck and the node count.
func TestGateTripsOnPlantedDefect(t *testing.T) {
	defects := []struct {
		name  string
		plant func(t *testing.T, h *core.Host)
		want  []string
	}{
		{"hv-destroy", func(t *testing.T, h *core.Host) {
			vm := h.Env.AllVMs()[0]
			if err := h.Env.HV.DestroyDomain(vm.Dom.ID); err != nil {
				t.Error(err)
			}
		}, []string{"hv.domains"}},
		{"store-litter", func(t *testing.T, h *core.Host) {
			h.Env.Store.Write("/local/domain/9999/name", "ghost")
		}, []string{"fsck", "xenstore.nodes"}},
	}
	for _, wl := range []string{"xl-density", "lightvm-density"} {
		for _, d := range defects {
			t.Run(wl+"/"+d.name, func(t *testing.T) {
				c := tinyConfig(wl, 3, false)
				c.defect = func(h *core.Host) { d.plant(t, h) }
				rep, err := runBench(c)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Correct || rep.Failed == 0 || rep.FailRatio <= 0 {
					t.Fatalf("gate passed a planted defect: %+v", rep)
				}
				all := strings.Join(rep.Violations, "\n")
				for _, w := range d.want {
					if !strings.Contains(all, w) {
						t.Errorf("no %q violation in:\n%s", w, all)
					}
				}
				var out bytes.Buffer
				if err := rep.print(&out, c); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(out.String(), `"correct":false`) {
					t.Errorf("result line does not report the failure:\n%s", out.String())
				}
			})
		}
	}
}

// Simulated results are a pure function of the seed: the same seed
// gives the same digest in separate runs, another seed another one.
func TestDigestDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed uint64) string {
				rep, err := runBench(tinyConfig(w.name, seed, false))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Fatalf("seed %d: %q", seed, rep.Violations)
				}
				return rep.Digest
			}
			a, b, other := digest(11), digest(11), digest(12)
			if a != b {
				t.Errorf("same seed, digests %s and %s", a, b)
			}
			if a == other {
				t.Errorf("seeds 11 and 12 share digest %s", a)
			}
		})
	}
}

// A baseline from another machine is flagged as not comparable.
func TestBaselineProvenanceMismatch(t *testing.T) {
	dir := t.TempDir()
	c := tinyConfig("lightvm-density", 5, false)
	c.out = dir
	rep, err := runBench(c)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := rep.print(&sink, c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lightvm-density-seed5.result.json")
	var base report
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	base.Provenance.CPUModel = "some other CPU"
	base.Digest = "0000000000000000"
	data, _ = json.Marshal(base)
	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := checkBaseline(&out, other, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NOT COMPARABLE") || !strings.Contains(out.String(), "cpu_model") ||
		!strings.Contains(out.String(), "simulated results changed") {
		t.Errorf("mismatch not reported:\n%s", out.String())
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "xl-density", "--trace", "2"},
		{"--workload", "xl-density", "--seconds", "0"},
		{"--workload", "xl-density", "--size", "tiny"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

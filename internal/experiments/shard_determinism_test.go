package experiments

import (
	"bytes"
	"testing"
)

// Cross-shard determinism: Options.Shards selects how many engine
// workers execute a sharded-cluster figure, and must never change what
// the figure reports. The check runs each figure at 1, 2 and 8 shards
// and demands byte-identical rendered JSON. ext-cluster, ext-gray and
// ext-faults are the figures the guarantee is about — each of their
// cells is a sharded cluster, and in the last two every host draws its
// own fault decisions; fig12a/b and ext-serve ride along as controls
// that run on single clocks, so Shards must be a no-op for them.
//
// Allocation counts are the one thing allowed to move (worker
// goroutines, channels and per-worker scratch are real allocations),
// but only within ±10% — a bigger swing means the engine is doing
// materially different work per worker count, which is how schedule
// divergence starts.
var shardDetFigures = []struct {
	id   string
	opts Options
}{
	{"fig12a", Options{Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1}},
	{"fig12b", Options{Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1}},
	{"ext-gray", Options{Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1}},
	{"ext-faults", Options{Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1}},
	{"ext-cluster", Options{Scale: 0.005, Seed: 1, Samples: 8, Parallel: 1}},
	{"ext-serve", Options{Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1}},
}

// renderAt runs one figure pinned at a shard count and returns its
// canonical JSON plus the exact (sequential) allocation count.
func renderAt(t *testing.T, id string, o Options, shards int) ([]byte, uint64) {
	t.Helper()
	o.Shards = shards
	res, err := RunMany([]string{id}, o)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", id, shards, err)
	}
	return encodeGolden(t, res[0]), res[0].Allocs
}

func TestShardDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, f := range shardDetFigures {
		base, baseAllocs := renderAt(t, f.id, f.opts, 1)
		for _, shards := range []int{2, 8} {
			doc, allocs := renderAt(t, f.id, f.opts, shards)
			if !bytes.Equal(doc, base) {
				t.Errorf("%s: output at shards=%d differs from shards=1\n shards=1: %s\n shards=%d: %s",
					f.id, shards, base, shards, doc)
				continue
			}
			lo := baseAllocs - baseAllocs/10
			hi := baseAllocs + baseAllocs/10
			if allocs < lo || allocs > hi {
				t.Errorf("%s: allocs at shards=%d = %d, outside ±10%% of shards=1's %d",
					f.id, shards, allocs, baseAllocs)
			}
		}
	}
}

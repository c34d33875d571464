package xenstore

import (
	"fmt"
	"testing"
)

// Allocation budgets for the store's hot paths. The experiment sweeps
// issue hundreds of store operations per guest creation (xl performs
// ~250), so per-op garbage multiplies into GC pressure at fig10/fig16
// volumes. These guards keep the allocation diet from silently
// regressing: path resolution must not allocate at all on a warm tree.

// warmPath is a realistic 5-level device path.
const warmPath = "/local/domain/7/device/vif"

func warmStore() *Store {
	s, _ := newStore()
	s.Write(warmPath+"/0/state", "1")
	s.Write(warmPath+"/0/mac", "00:16:3e:00:00:07")
	s.Write("/local/domain/7/name", "guest7")
	return s
}

func TestReadAllocFree(t *testing.T) {
	s := warmStore()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Read(warmPath + "/0/state"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Store.Read on a warm 5-level path allocates %.1f objects/op, want 0", allocs)
	}
}

func TestExistsAllocFree(t *testing.T) {
	s := warmStore()
	// Both the hit and the miss path must stay allocation-free: the
	// toolstacks probe for absent nodes constantly.
	allocs := testing.AllocsPerRun(200, func() {
		if !s.Exists(warmPath + "/0/state") {
			t.Fatal("node vanished")
		}
		if s.Exists(warmPath + "/9/state") {
			t.Fatal("phantom node")
		}
	})
	if allocs > 0 {
		t.Fatalf("Store.Exists allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWriteWarmAllocBudget(t *testing.T) {
	s := warmStore()
	// An unrelated watch must not drag allocations into the write path:
	// the bucket index rules it out without building candidate sets.
	s.Watch("/backend/vbd", "tok", func(string, string) {})
	// A warm overwrite edits the node in place: it must not allocate.
	allocs := testing.AllocsPerRun(200, func() {
		s.Write(warmPath+"/0/state", "4")
	})
	if allocs > 0 {
		t.Fatalf("Store.Write overwriting a warm path allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWriteAllocsIndependentOfFanout(t *testing.T) {
	// A write must not do work proportional to its directory's fanout:
	// the per-write allocation count must not grow with the number of
	// siblings. Copying a whole children map per write would allocate
	// O(fanout) here and fail by orders of magnitude.
	small := warmStore()
	base := testing.AllocsPerRun(200, func() {
		small.Write(warmPath+"/0/state", "4")
	})
	big := warmStore()
	for i := 0; i < 4096; i++ {
		big.Write(fmt.Sprintf("/local/domain/%d/name", i), "g")
	}
	wide := testing.AllocsPerRun(200, func() {
		big.Write(warmPath+"/0/state", "4")
	})
	// 4096 siblings add at most a couple of trie levels to the path
	// (log32), never a fanout-proportional copy.
	if wide > base+8 {
		t.Fatalf("write allocations grew with fanout: %.1f objects/op at 4096 siblings vs %.1f at 3 — directory copied",
			wide, base)
	}
}

func TestWatchDeliveryScansOwnBucketOnly(t *testing.T) {
	s, _ := newStore()
	fired := 0
	s.Watch("/backend/vif", "t", func(string, string) { fired++ })
	// Pile unrelated watches into other buckets; delivery must still
	// work and root-level watches must still match everything.
	for i := 0; i < 50; i++ {
		s.Watch(fmt.Sprintf("/other%d", i), "t", func(string, string) { t.Fatal("unrelated watch fired") })
	}
	rootFired := 0
	s.Watch("/", "r", func(string, string) { rootFired++ })
	s.Write("/backend/vif/1/0/state", "1")
	if fired != 1 {
		t.Fatalf("subtree watch fired %d times, want 1", fired)
	}
	if rootFired != 1 {
		t.Fatalf("root watch fired %d times, want 1", rootFired)
	}
	// Simulated cost still models the full linear scan.
	if got := s.matchCost("/backend/vif/1/0/state"); got != s.NumWatches() {
		t.Fatalf("matchCost = %d, want %d (modelled linear scan)", got, s.NumWatches())
	}
}

func TestWatchOrderPreservedAcrossBuckets(t *testing.T) {
	s, _ := newStore()
	var order []string
	s.Watch("/", "a", func(string, string) { order = append(order, "a") })
	s.Watch("/x", "b", func(string, string) { order = append(order, "b") })
	s.Watch("/", "c", func(string, string) { order = append(order, "c") })
	s.Watch("/x/y", "d", func(string, string) { order = append(order, "d") })
	s.Write("/x/y/z", "1")
	want := "a,b,c,d"
	got := ""
	for i, o := range order {
		if i > 0 {
			got += ","
		}
		got += o
	}
	if got != want {
		t.Fatalf("delivery order = %s, want %s (registration order)", got, want)
	}
}

func TestUnwatchRemovesFromIndex(t *testing.T) {
	s, _ := newStore()
	count := 0
	id := s.Watch("/a", "t1", func(string, string) { count++ })
	s.Watch("/a/b", "t2", func(string, string) { count++ })
	s.Unwatch(id)
	s.Write("/a/b/c", "1")
	if count != 1 {
		t.Fatalf("fired %d times after Unwatch, want 1", count)
	}
	if n := s.UnwatchByToken("t2"); n != 1 {
		t.Fatalf("UnwatchByToken removed %d, want 1", n)
	}
	s.Write("/a/b/c", "2")
	if count != 1 {
		t.Fatalf("fired %d times after UnwatchByToken, want 1", count)
	}
}

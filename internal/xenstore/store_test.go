package xenstore

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

func newStore() (*Store, *sim.Clock) {
	c := sim.NewClock()
	return New(c), c
}

func TestWriteRead(t *testing.T) {
	s, _ := newStore()
	s.Write("/local/domain/1/name", "guest1")
	v, err := s.Read("/local/domain/1/name")
	if err != nil || v != "guest1" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	if _, err := s.Read("/local/domain/2/name"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("missing node: %v", err)
	}
}

func TestIntermediateDirectoriesCreated(t *testing.T) {
	s, _ := newStore()
	s.Write("/a/b/c/d", "x")
	if !s.Exists("/a/b") {
		t.Fatal("intermediate dir missing")
	}
	names, err := s.Directory("/a/b")
	if err != nil || len(names) != 1 || names[0] != "c" {
		t.Fatalf("Directory = %v, %v", names, err)
	}
}

func TestDirectorySorted(t *testing.T) {
	s, _ := newStore()
	for _, k := range []string{"z", "a", "m"} {
		s.Write("/dir/"+k, k)
	}
	names, _ := s.Directory("/dir")
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("Directory = %v", names)
	}
}

func TestRmSubtree(t *testing.T) {
	s, _ := newStore()
	s.Write("/a/b/c", "1")
	s.Write("/a/b/d", "2")
	s.Write("/a/e", "3")
	if err := s.Rm("/a/b"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a/b/c") || s.Exists("/a/b") {
		t.Fatal("subtree survived Rm")
	}
	if !s.Exists("/a/e") {
		t.Fatal("sibling removed")
	}
	if err := s.Rm("/a/b"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("double Rm: %v", err)
	}
	if err := s.Rm("/"); err == nil {
		t.Fatal("root Rm accepted")
	}
}

func TestNumNodes(t *testing.T) {
	s, _ := newStore()
	if s.NumNodes() != 0 {
		t.Fatalf("empty store has %d nodes", s.NumNodes())
	}
	s.Write("/a/b", "1") // creates a, b
	s.Write("/a/c", "2") // creates c
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", s.NumNodes())
	}
}

func TestOpsChargeClock(t *testing.T) {
	s, c := newStore()
	before := c.Now()
	s.Write("/x", "1")
	if c.Now() <= before {
		t.Fatal("write charged no time")
	}
	perOp := c.Now().Sub(before)
	min := costs.XSRequestInterrupts*costs.SoftIRQ + costs.XSRequestCrossings*costs.DomainCrossing
	if perOp < min {
		t.Fatalf("op cost %v below protocol floor %v", perOp, min)
	}
}

func TestLogRotationSpike(t *testing.T) {
	s, c := newStore()
	// Drive just under the rotation threshold, then measure the spike.
	for i := 0; i < costs.XSLogRotateLines-1; i++ {
		s.logAccess()
	}
	before := c.Now()
	s.logAccess()
	spike := c.Now().Sub(before)
	if spike < costs.XSLogRotateCost {
		t.Fatalf("rotation charged %v, want ≥%v", spike, costs.XSLogRotateCost)
	}
	if s.Count.LogRotations != 1 {
		t.Fatalf("rotations = %d", s.Count.LogRotations)
	}
}

func TestLoggingDisabledNoRotation(t *testing.T) {
	s, c := newStore()
	s.LoggingEnabled = false
	for i := 0; i < 2*costs.XSLogRotateLines; i++ {
		s.logAccess()
	}
	if s.Count.LogRotations != 0 || c.Now() != 0 {
		t.Fatal("disabled logging still charged")
	}
}

func TestWatchFiresOnSubtree(t *testing.T) {
	s, _ := newStore()
	var fired []string
	s.Watch("/backend/vif", "tok", func(path, token string) {
		fired = append(fired, path+"#"+token)
	})
	s.Write("/backend/vif/1/0/state", "1") // below prefix → fires
	s.Write("/backend/vbd/1/0/state", "1") // other tree → no fire
	s.Write("/backend/vif", "x")           // node itself → fires
	if len(fired) != 2 {
		t.Fatalf("watch fired %d times: %v", len(fired), fired)
	}
	if fired[0] != "/backend/vif/1/0/state#tok" {
		t.Fatalf("first fire = %q", fired[0])
	}
}

func TestWatchNotFiredOnPrefixSibling(t *testing.T) {
	s, _ := newStore()
	count := 0
	s.Watch("/backend/vif", "t", func(string, string) { count++ })
	s.Write("/backend/vif2/1", "x") // shares string prefix, different node
	if count != 0 {
		t.Fatal("watch fired on sibling with shared name prefix")
	}
}

func TestUnwatch(t *testing.T) {
	s, _ := newStore()
	count := 0
	id := s.Watch("/a", "t", func(string, string) { count++ })
	s.Write("/a/x", "1")
	s.Unwatch(id)
	s.Write("/a/y", "2")
	if count != 1 {
		t.Fatalf("fired %d times, want 1", count)
	}
	if s.NumWatches() != 0 {
		t.Fatal("watch not removed")
	}
}

func TestWatchFiresOnRmAndMkdir(t *testing.T) {
	s, _ := newStore()
	count := 0
	s.Watch("/a", "t", func(string, string) { count++ })
	s.Write("/a/x", "1") // fire 1
	if err := s.Rm("/a/x"); err != nil {
		t.Fatal(err)
	} // fire 2
	s.Mkdir("/a/dir") // fire 3
	s.Mkdir("/a/dir") // already exists → no fire
	if count != 3 {
		t.Fatalf("fired %d times, want 3", count)
	}
}

func TestTxnBasicCommit(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	tx.Write("/a/b", "1")
	tx.Write("/a/c", "2")
	if s.Exists("/a/b") {
		t.Fatal("txn write visible before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Read("/a/b"); v != "1" {
		t.Fatal("txn write lost")
	}
}

func TestTxnReadsOwnWrites(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	tx.Write("/a", "own")
	if v, err := tx.Read("/a"); err != nil || v != "own" {
		t.Fatalf("own write invisible: %q %v", v, err)
	}
	tx.Rm("/a")
	if tx.Exists("/a") {
		t.Fatal("own delete invisible")
	}
	tx.Abort()
}

func TestTxnConflictOnRead(t *testing.T) {
	s, _ := newStore()
	s.Write("/k", "old")
	tx := s.TxnStart()
	if _, err := tx.Read("/k"); err != nil {
		t.Fatal(err)
	}
	s.Write("/k", "interloper") // concurrent modification
	tx.Write("/other", "x")
	if err := tx.Commit(); !errors.Is(err, ErrAgain) {
		t.Fatalf("conflicting commit: %v", err)
	}
	if s.Count.TxnConflicts != 1 {
		t.Fatalf("conflicts = %d", s.Count.TxnConflicts)
	}
}

func TestTxnConflictOnWrittenNode(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	tx.Write("/k", "mine")
	s.Write("/k", "theirs")
	if err := tx.Commit(); !errors.Is(err, ErrAgain) {
		t.Fatalf("write-write conflict: %v", err)
	}
	if v, _ := s.Read("/k"); v != "theirs" {
		t.Fatal("failed commit clobbered store")
	}
}

func TestTxnConflictOnAppearance(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	if tx.Exists("/new") {
		t.Fatal("phantom node")
	}
	s.Write("/new", "appeared")
	tx.Write("/x", "1")
	if err := tx.Commit(); !errors.Is(err, ErrAgain) {
		t.Fatalf("appearance conflict: %v", err)
	}
}

func TestTxnNoFalseConflict(t *testing.T) {
	s, _ := newStore()
	s.Write("/a", "1")
	tx := s.TxnStart()
	if _, err := tx.Read("/a"); err != nil {
		t.Fatal(err)
	}
	s.Write("/unrelated", "2")
	tx.Write("/b", "3")
	if err := tx.Commit(); err != nil {
		t.Fatalf("unrelated write caused conflict: %v", err)
	}
}

func TestTxnDirectoryConflictOnChildAdd(t *testing.T) {
	// Listing a directory and then having another committer add a
	// child must conflict: the parent's generation changed. This is
	// the mechanism by which sequential creations against shared
	// backend directories collide.
	s, _ := newStore()
	s.Write("/local/domain/1/name", "a")
	tx := s.TxnStart()
	if _, err := tx.Directory("/local/domain"); err != nil {
		t.Fatal(err)
	}
	s.Write("/local/domain/2/name", "b")
	tx.Write("/x", "1")
	if err := tx.Commit(); !errors.Is(err, ErrAgain) {
		t.Fatalf("directory conflict: %v", err)
	}
}

func TestTxnDirectoryMergesOwnWrites(t *testing.T) {
	s, _ := newStore()
	s.Write("/d/a", "1")
	tx := s.TxnStart()
	tx.Write("/d/b", "2")
	names, err := tx.Directory("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Directory = %v", names)
	}
	tx.Abort()
}

func TestTxnHelperRetries(t *testing.T) {
	s, _ := newStore()
	s.Write("/k", "0")
	attempts := 0
	err := s.Txn(5, func(tx *Tx) error {
		attempts++
		if _, err := tx.Read("/k"); err != nil {
			return err
		}
		if attempts == 1 {
			s.Write("/k", "bump") // force one conflict
		}
		tx.Write("/out", fmt.Sprint(attempts))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if v, _ := s.Read("/out"); v != "2" {
		t.Fatalf("committed value %q", v)
	}
}

func TestTxnHelperGivesUp(t *testing.T) {
	s, _ := newStore()
	s.Write("/k", "0")
	err := s.Txn(2, func(tx *Tx) error {
		if _, err := tx.Read("/k"); err != nil {
			return err
		}
		s.Write("/k", "always-conflict")
		tx.Write("/out", "x")
		return nil
	})
	if !errors.Is(err, ErrAgain) {
		t.Fatalf("exhausted retries: %v", err)
	}
}

func TestTxnBodyErrorAborts(t *testing.T) {
	s, _ := newStore()
	sentinel := errors.New("boom")
	err := s.Txn(3, func(tx *Tx) error {
		tx.Write("/x", "1")
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if s.Exists("/x") {
		t.Fatal("aborted txn leaked writes")
	}
	if len(s.openTxns) != 0 {
		t.Fatal("txn table leak")
	}
}

func TestCommitTwiceRejected(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	tx.Write("/a", "1")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrBadTxn) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestUniqueNameScanLinearCost(t *testing.T) {
	s, c := newStore()
	for i := 0; i < 50; i++ {
		if err := s.WriteUniqueName("/vm-names", fmt.Sprintf("k%d", i), fmt.Sprintf("guest%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate must be rejected.
	if err := s.WriteUniqueName("/vm-names", "dup", "guest7"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate name: %v", err)
	}
	// Cost of adding one more name grows with population: compare the
	// 51st insert against the 1st.
	s2, c2 := newStore()
	before2 := c2.Now()
	_ = s2.WriteUniqueName("/vm-names", "k0", "g0")
	first := c2.Now().Sub(before2)
	before := c.Now()
	_ = s.WriteUniqueName("/vm-names", "k50", "guest-new")
	nth := c.Now().Sub(before)
	if nth <= first {
		t.Fatalf("uniqueness scan not linear: first=%v nth=%v", first, nth)
	}
}

func TestUniqueNameChargesSuccessScan(t *testing.T) {
	// The §4.2 uniqueness scan costs a full pass over the registered
	// names whether or not it finds a duplicate; the success path must
	// charge it too, not only the rejection path.
	const population = 40
	s, c := newStore()
	for i := 0; i < population; i++ {
		if err := s.WriteUniqueName("/vm-names", fmt.Sprintf("k%d", i), fmt.Sprintf("g%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Now()
	opsBefore := s.Count.Ops
	if err := s.WriteUniqueName("/vm-names", "kx", "g-new"); err != nil {
		t.Fatal(err)
	}
	cost := c.Now().Sub(before)
	// Baseline: the same write without the uniqueness protocol.
	s2, c2 := newStore()
	for i := 0; i < population; i++ {
		s2.Write(fmt.Sprintf("/vm-names/k%d", i), fmt.Sprintf("g%d", i))
	}
	before2 := c2.Now()
	s2.Write("/vm-names/kx", "g-new")
	plain := c2.Now().Sub(before2)
	minExtra := time.Duration(population) * costs.XSNameUniquenessPerGuest
	if cost-plain < minExtra {
		t.Fatalf("successful WriteUniqueName charged only %v over a plain write, want ≥%v scan cost", cost-plain, minExtra)
	}
	// The scan is charged as a store-daemon op of its own.
	if got := s.Count.Ops - opsBefore; got != 2 {
		t.Fatalf("successful WriteUniqueName charged %d ops, want 2 (scan + write)", got)
	}
}

// refWriteUniqueName is WriteUniqueName as it was first written: one
// clock Sleep per compared name, interleaved with the comparisons. It
// is the reference the batched charge must match exactly.
func refWriteUniqueName(s *Store, dir, key, name string) error {
	n, _ := s.resolve(dir)
	if n != nil {
		nkids := n.nkids
		dup := false
		n.eachChild(func(child *node) bool {
			s.clock.Sleep(costs.XSNameUniquenessPerGuest)
			if child.value == name {
				dup = true
				return false
			}
			return true
		})
		s.chargeOp(nkids)
		if dup {
			return fmt.Errorf("%w: name %q", ErrExists, name)
		}
	}
	s.WriteAs(0, dir+"/"+key, name)
	return nil
}

// TestListingAndUniqueScanChargesExact pins the two O(#guests) store
// charges on the xl create path to the op they replace, to the
// nanosecond and the counter: the count-only listing against the full
// listing, and the batched name-scan charge against one Sleep per
// name. Each pair of twin stores also carries a clock event inside the
// charge window that re-enters the store, so end-of-charge views and
// mid-scan firing instants are compared too.
func TestListingAndUniqueScanChargesExact(t *testing.T) {
	const guests = 300
	twin := func() (*Store, *sim.Clock) {
		s, c := newStore()
		for i := 0; i < guests; i++ {
			s.Write(fmt.Sprintf("/local/domain/%d/name", i), fmt.Sprintf("g%d", i))
			s.Write(fmt.Sprintf("/vm/names/%d", i), fmt.Sprintf("g%d", i))
		}
		return s, c
	}
	// midWindow schedules a store write (itself a charged op) to land
	// inside the next op's charge, and records when it fired.
	midWindow := func(s *Store, c *sim.Clock, after sim.Duration, at *sim.Time) {
		c.After(after, func() {
			*at = c.Now()
			s.Write("/local/domain/9999/name", "late")
		})
	}

	t.Run("DirectoryLen", func(t *testing.T) {
		s1, c1 := twin()
		s2, c2 := twin()
		var at1, at2 sim.Time
		midWindow(s1, c1, costs.XSProcess, &at1)
		midWindow(s2, c2, costs.XSProcess, &at2)
		names, err := s1.Directory("/local/domain")
		if err != nil {
			t.Fatal(err)
		}
		n, err := s2.DirectoryLen("/local/domain")
		if err != nil {
			t.Fatal(err)
		}
		if n != len(names) || n != guests+1 {
			t.Fatalf("DirectoryLen = %d, len(Directory) = %d, want %d (the mid-charge write included)", n, len(names), guests+1)
		}
		if c1.Now() != c2.Now() || at1 != at2 || at1 == 0 || s1.Count != s2.Count {
			t.Fatalf("charges differ: Directory at %v (event %v) %+v; DirectoryLen at %v (event %v) %+v",
				c1.Now(), at1, s1.Count, c2.Now(), at2, s2.Count)
		}
		_, err1 := s1.Directory("/local/nope")
		_, err2 := s2.DirectoryLen("/local/nope")
		if !errors.Is(err2, ErrNoEnt) || !errors.Is(err1, ErrNoEnt) {
			t.Fatalf("missing path: Directory %v, DirectoryLen %v, want ErrNoEnt", err1, err2)
		}
		if c1.Now() != c2.Now() || s1.Count != s2.Count {
			t.Fatalf("missing-path charges differ: %v %+v vs %v %+v", c1.Now(), s1.Count, c2.Now(), s2.Count)
		}
	})

	// The duplicate sits midway through the scan in trie order, so the
	// event fires between comparisons on both paths.
	probe, _ := twin()
	dir, _ := probe.resolve("/vm/names")
	midway := appendChildren(dir.kids, nil)[guests/2].value
	for _, tc := range []struct{ name, guest string }{
		{"unique", "g-new"},
		{"duplicate", midway},
	} {
		t.Run("WriteUniqueName/"+tc.name, func(t *testing.T) {
			s1, c1 := twin()
			s2, c2 := twin()
			var at1, at2 sim.Time
			after := 3*costs.XSNameUniquenessPerGuest + 1
			midWindow(s1, c1, after, &at1)
			midWindow(s2, c2, after, &at2)
			start := c2.Now()
			err1 := refWriteUniqueName(s1, "/vm/names", "new", tc.guest)
			err2 := s2.WriteUniqueName("/vm/names", "new", tc.guest)
			if (err1 == nil) != (err2 == nil) || (tc.name == "duplicate") != errors.Is(err2, ErrExists) {
				t.Fatalf("reference %v, batched %v", err1, err2)
			}
			if c1.Now() != c2.Now() || at1 != at2 || at1 != start.Add(after) || s1.Count != s2.Count {
				t.Fatalf("charges differ: per-name Sleep at %v (event %v) %+v; SleepN at %v (event %v) %+v",
					c1.Now(), at1, s1.Count, c2.Now(), at2, s2.Count)
			}
		})
	}
}

func TestWatchCostGrowsWithWatches(t *testing.T) {
	s, c := newStore()
	s.Write("/warm", "up")
	before := c.Now()
	s.Write("/k", "v")
	cheap := c.Now().Sub(before)
	for i := 0; i < 200; i++ {
		s.Watch(fmt.Sprintf("/w/%d", i), "t", func(string, string) {})
	}
	before = c.Now()
	s.Write("/k", "v2")
	costly := c.Now().Sub(before)
	if costly <= cheap {
		t.Fatalf("watch matching cost did not grow: %v vs %v", cheap, costly)
	}
}

// Property: committed transactions are atomic — either every write in
// the txn is visible or none is.
func TestTxnAtomicityQuick(t *testing.T) {
	f := func(keys []uint8, conflict bool) bool {
		if len(keys) == 0 {
			return true
		}
		s, _ := newStore()
		s.Write("/guard", "0")
		tx := s.TxnStart()
		if _, err := tx.Read("/guard"); err != nil {
			return false
		}
		for i, k := range keys {
			tx.Write(fmt.Sprintf("/t/%d_%d", i, k), "v")
		}
		if conflict {
			s.Write("/guard", "1")
		}
		err := tx.Commit()
		visible := 0
		for i, k := range keys {
			if s.Exists(fmt.Sprintf("/t/%d_%d", i, k)) {
				visible++
			}
		}
		if err == nil {
			return visible == len(keys)
		}
		return visible == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionCountSlowsOps(t *testing.T) {
	s, c := newStore()
	before := c.Now()
	s.Write("/k", "1")
	idle := c.Now().Sub(before)
	s.Connections = 1000
	before = c.Now()
	s.Write("/k", "2")
	loaded := c.Now().Sub(before)
	if loaded <= idle {
		t.Fatalf("op under 1000 connections (%v) not slower than idle (%v)", loaded, idle)
	}
	if loaded-idle < 1000*costs.XSPerConnection {
		t.Fatalf("connection scan under-charged: delta=%v", loaded-idle)
	}
}

func TestReadOfNodeRemovedMidChargeReturnsStartValue(t *testing.T) {
	// A reply carries the end-of-charge value while the node exists, but
	// a node removed during the charge replies with its value from op
	// start — even when the same clock event rewrote it first.
	s, c := newStore()
	s.Write("/a/b", "start")
	c.After(costs.XSProcess, func() {
		s.Write("/a/b", "rewritten")
		if err := s.Rm("/a/b"); err != nil {
			t.Error(err)
		}
	})
	if v, err := s.Read("/a/b"); err != nil || v != "start" {
		t.Fatalf("Read = %q, %v; want the op-start value %q", v, err, "start")
	}
	if s.Exists("/a/b") {
		t.Fatal("the mid-charge Rm did not land")
	}

	// The same for a listing: a directory that gains a child and is
	// then removed mid-charge lists its op-start children.
	s.Write("/d/x", "1")
	c.After(costs.XSProcess, func() {
		s.Write("/d/y", "2")
		if err := s.Rm("/d"); err != nil {
			t.Error(err)
		}
	})
	names, err := s.Directory("/d")
	if err != nil || len(names) != 1 || names[0] != "x" {
		t.Fatalf("Directory = %v, %v; want the op-start listing [x]", names, err)
	}

	// A node that survives the charge replies with its end value.
	s.Write("/e", "start")
	c.After(costs.XSProcess, func() { s.Write("/e", "end") })
	if v, _ := s.Read("/e"); v != "end" {
		t.Fatalf("Read = %q, want the end-of-charge value %q", v, "end")
	}
}

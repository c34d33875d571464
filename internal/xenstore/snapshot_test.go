package xenstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// populateGuests writes a realistic per-guest subtree for n guests
// (about 6 nodes each, echoing the toolstack's registry shape).
func populateGuests(s *Store, n int) {
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("/local/domain/%d", i+1)
		s.Write(d+"/name", fmt.Sprintf("g%d", i+1))
		s.Write(d+"/memory/target", "8192")
		s.Write(d+"/device/vif/0/state", "4")
		s.Write(d+"/control/shutdown", "")
	}
}

func TestSnapshotFrozenWhileLiveTreeMoves(t *testing.T) {
	s, _ := newStore()
	populateGuests(s, 5)
	sn := s.Snapshot()
	wantNodes := sn.NumNodes()

	// Mutate the live tree hard: overwrite, delete, create, set perms.
	s.Write("/local/domain/1/name", "renamed")
	if err := s.Rm("/local/domain/2"); err != nil {
		t.Fatal(err)
	}
	s.Write("/local/domain/99/name", "late")
	if err := s.SetPerm("/local/domain/3/name", 3, PermRead); err != nil {
		t.Fatal(err)
	}

	if v, err := sn.Read("/local/domain/1/name"); err != nil || v != "g1" {
		t.Fatalf("snapshot saw live write: %q, %v", v, err)
	}
	if !sn.Exists("/local/domain/2/name") {
		t.Fatal("snapshot lost a node deleted later")
	}
	if sn.Exists("/local/domain/99") {
		t.Fatal("snapshot gained a node created later")
	}
	if sn.NumNodes() != wantNodes {
		t.Fatalf("snapshot node count moved: %d -> %d", wantNodes, sn.NumNodes())
	}
	kids, err := sn.Directory("/local/domain")
	if err != nil || len(kids) != 5 {
		t.Fatalf("snapshot directory = %v, %v (want the 5 captured guests)", kids, err)
	}
	// And the live store did move.
	if v, _ := s.Read("/local/domain/1/name"); v != "renamed" {
		t.Fatalf("live read = %q", v)
	}
	if s.Exists("/local/domain/2") {
		t.Fatal("live delete lost")
	}
}

func TestSnapshotDoesNotChargeClock(t *testing.T) {
	s, clock := newStore()
	populateGuests(s, 20)
	before := clock.Now()
	sn := s.Snapshot()
	if _, err := sn.Read("/local/domain/7/name"); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Directory("/local/domain"); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != before {
		t.Fatal("snapshot capture/reads charged the virtual clock")
	}
	if got := s.Count.Snapshots; got != 1 {
		t.Fatalf("Snapshots counter = %d, want 1", got)
	}
}

func TestSnapshotSerializeRoundTrip(t *testing.T) {
	s, _ := newStore()
	populateGuests(s, 7)
	if err := s.SetPerm("/local/domain/3/name", 3, PermBoth); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	blob := sn.Serialize()
	back, err := DeserializeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != sn.NumNodes() {
		t.Fatalf("round trip node count %d != %d", back.NumNodes(), sn.NumNodes())
	}
	if v, err := back.Read("/local/domain/3/name"); err != nil || v != "g3" {
		t.Fatalf("round-trip read = %q, %v", v, err)
	}
	d1, _ := sn.Directory("/local/domain")
	d2, err := back.Directory("/local/domain")
	if err != nil || len(d1) != len(d2) {
		t.Fatalf("round-trip directory = %v vs %v (%v)", d2, d1, err)
	}
	// Canonical format: re-serializing the round-tripped snapshot must
	// reproduce the exact bytes.
	if !bytes.Equal(back.Serialize(), blob) {
		t.Fatal("serialize(deserialize(blob)) != blob — format not canonical")
	}
}

func TestDeserializeRejectsMalformed(t *testing.T) {
	s, _ := newStore()
	populateGuests(s, 2)
	good := s.Snapshot().Serialize()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("not-a-snapshot"),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0x00),
		"flipped len": append([]byte{}, good...),
	}
	cases["flipped len"][len(snapMagic)+1] = 0xff // huge name length
	for name, blob := range cases {
		if _, err := DeserializeSnapshot(blob); err == nil {
			t.Errorf("%s: malformed blob accepted", name)
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: error %v is not ErrBadSnapshot", name, err)
		}
	}
}

func TestSubtreeSnapshotAndGraft(t *testing.T) {
	src, _ := newStore()
	populateGuests(src, 3)
	sub, err := src.Snapshot().Subtree("/local/domain/2")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sub.Read("/name"); err != nil || v != "g2" {
		t.Fatalf("subtree read = %q, %v", v, err)
	}

	dst, _ := newStore()
	dst.Write("/local/domain/9/placeholder", "x")
	fired := 0
	dst.Watch("/local/domain/9", "tok", func(string, string) { fired++ })
	if err := dst.GraftSnapshot(src.Snapshot(), "/local/domain/2", "/local/domain/9"); err != nil {
		t.Fatal(err)
	}
	if v, err := dst.Read("/local/domain/9/name"); err != nil || v != "g2" {
		t.Fatalf("grafted read = %q, %v", v, err)
	}
	if dst.Exists("/local/domain/9/placeholder") {
		t.Fatal("graft merged instead of replacing the destination")
	}
	if fired != 1 {
		t.Fatalf("graft fired %d watch events at dst, want 1", fired)
	}
	// Generation order must stay monotonic after grafting foreign-store
	// state: a fresh transaction must not see phantom conflicts.
	if err := dst.Txn(3, func(tx *Tx) error {
		if _, err := tx.Read("/local/domain/9/name"); err != nil {
			return err
		}
		tx.Write("/local/domain/9/resumed", "1")
		return nil
	}); err != nil {
		t.Fatalf("txn after graft: %v", err)
	}

	// Graft from a serialized checkpoint (the migrate path).
	dst2, _ := newStore()
	blob := src.Snapshot().Serialize()
	back, err := DeserializeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst2.GraftSnapshot(back, "/local/domain/2", "/local/domain/4"); err != nil {
		t.Fatal(err)
	}
	if v, err := dst2.Read("/local/domain/4/device/vif/0/state"); err != nil || v != "4" {
		t.Fatalf("deserialized graft read = %q, %v", v, err)
	}

	if err := dst.GraftSnapshot(sub, "/missing", "/x"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("graft of missing src path: %v", err)
	}
	if err := dst.GraftSnapshot(sub, "/", "/"); err == nil {
		t.Fatal("graft onto the root accepted")
	}
}

func TestGraftDoesNotShareWithSource(t *testing.T) {
	// A graft installs a copy: writes, removals and perm changes under
	// the grafted path must never reach the snapshot it came from,
	// whether that is a captured subtree or the same store's own tree.
	src, _ := newStore()
	populateGuests(src, 3)
	sn, err := src.SnapshotSubtree("/local/domain/2")
	if err != nil {
		t.Fatal(err)
	}
	blob := sn.Serialize()
	if live, err := src.SerializeSubtree("/local/domain/2"); err != nil || !bytes.Equal(blob, live) {
		t.Fatalf("SnapshotSubtree differs from the live subtree it copied (%v)", err)
	}

	dst, _ := newStore()
	for _, d := range []string{"/local/domain/7", "/local/domain/8"} {
		if err := dst.GraftSnapshot(sn, "/", d); err != nil {
			t.Fatal(err)
		}
	}
	dst.Write("/local/domain/7/name", "changed")
	dst.Write("/local/domain/7/device/vif/0/extra", "x")
	if err := dst.Rm("/local/domain/8/memory"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetPerm("/local/domain/7/control/shutdown", 7, PermBoth); err != nil {
		t.Fatal(err)
	}
	if v, err := sn.Read("/name"); err != nil || v != "g2" {
		t.Fatalf("source snapshot read = %q, %v after writes under the graft", v, err)
	}
	if !bytes.Equal(sn.Serialize(), blob) {
		t.Fatal("writes under a grafted path changed the source snapshot")
	}

	// Self-graft from a view of the live tree, then write under the copy.
	orig := treeBytes(mustSubtree(t, src.View(), "/local/domain/1"))
	if err := src.GraftSnapshot(src.View(), "/local/domain/1", "/local/domain/9"); err != nil {
		t.Fatal(err)
	}
	src.Write("/local/domain/9/name", "copy")
	if err := src.Rm("/local/domain/9/device"); err != nil {
		t.Fatal(err)
	}
	if now := treeBytes(mustSubtree(t, src.View(), "/local/domain/1")); !bytes.Equal(orig, now) {
		t.Fatal("writes under a self-graft reached the original subtree")
	}
	if v := src.CheckConsistency(); len(v) != 0 {
		t.Fatalf("CheckConsistency after self-graft: %v", v)
	}
}

// treeBytes encodes a snapshot's nodes without the header, whose
// generation moves with every write to the store.
func treeBytes(sn *Snapshot) []byte {
	var scratch []*node
	return appendNode(nil, sn.root, &scratch)
}

func mustSubtree(t *testing.T, sn *Snapshot, path string) *Snapshot {
	t.Helper()
	sub, err := sn.Subtree(path)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

package xenstore

import "math/bits"

// The store's state is one mutable tree owned by the store's timeline:
// every mutation (write, rm, mkdir, perm change, transaction apply,
// graft) edits the nodes on its path in place. Nothing else ever
// reaches those nodes: a Snapshot is a deep copy (snapshot.go), and a
// graft copies what it installs, so no node or trie level is shared
// between two trees.
//
// Each node's children live in a hash-array-mapped trie (HAMT) keyed
// by the child name's FNV-1a hash, 5 bits of hash per level, mutated
// in place. Its visit order is fixed by the hashes alone (a slot's
// position is its hash chunk at that level), which keeps listings and
// the uniqueness scan's visited count (amtFindValue) independent of
// the order children were added and removed in. Every node carries its
// segment's 64-bit FNV id (hsh), computed once at creation; trie
// descent compares and keys on that integer and never re-hashes the
// name string.

// node is one store node. The zero gen means "never explicitly
// modified" — freshly ensured intermediate directories keep gen 0,
// which is load-bearing for transaction-conflict semantics (a
// transaction that observed absence does not conflict with an
// intermediate directory appearing).
type node struct {
	name  string
	hsh   uint64 // FNV-1a of name: the interned segment id and trie key
	value string
	gen   uint64 // bumped on any modification (incl. child add/rm)
	owner int    // domain that owns the node (permission model)
	perm  Perm   // access class for non-owners

	kids  *amtNode // nil when the node has no children
	nkids int      // direct children
	size  int      // subtree node count including this node
}

// ---------------------------------------------------------------------------
// HAMT: segment id (hsh) → *node.
// ---------------------------------------------------------------------------

const (
	amtBits  = 5
	amtWidth = 1 << amtBits // 32
	amtMask  = amtWidth - 1
	// amtMaxShift is the hash exhaustion point: past it, entries live
	// in a collision bucket and are scanned linearly (FNV-1a makes
	// this effectively unreachable, but correctness must not rely on
	// hash quality).
	amtMaxShift = 60
)

// amtNode is one bitmap-compressed trie level. slots[i] is either a
// *node (a direct entry) or a *amtNode (a deeper level); at
// amtMaxShift, slots hold *amtCollision.
type amtNode struct {
	bitmap uint32
	slots  []any
}

// amtCollision is the (practically unreachable) full-hash-collision
// bucket.
type amtCollision struct {
	entries []*node
}

// FNV-1a parameters, shared with hashIter (store.go), which computes
// the same hash inline while splitting paths.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// nameHash is FNV-1a over the child name — the segment's interned id.
// Allocation-free, computed once per node at creation and carried in
// node.hsh thereafter.
func nameHash(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// slotIndex maps a bitmap position to its packed slot index.
func (a *amtNode) slotIndex(bit uint32) int {
	return bits.OnesCount32(a.bitmap & (bit - 1))
}

// amtGet returns the child with segment id h named name, or nil.
// Descent keys on the integer id; the name is compared only at the
// final candidate, and only to guard against full 64-bit collisions.
func amtGet(a *amtNode, h uint64, name string) *node {
	shift := uint(0)
	for a != nil {
		if shift >= amtMaxShift {
			for _, s := range a.slots {
				if c, ok := s.(*amtCollision); ok {
					for _, e := range c.entries {
						if e.name == name {
							return e
						}
					}
				}
			}
			return nil
		}
		bit := uint32(1) << ((h >> shift) & amtMask)
		if a.bitmap&bit == 0 {
			return nil
		}
		switch s := a.slots[a.slotIndex(bit)].(type) {
		case *node:
			if s.hsh == h && s.name == name {
				return s
			}
			return nil
		case *amtNode:
			a, shift = s, shift+amtBits
		default:
			return nil
		}
	}
	return nil
}

// amtBuild inserts child into the trie in place and returns the trie
// (a new level, drawn from fl, when a is nil). Callers guarantee no
// entry with child's name is present, so there is no replace case.
func amtBuild(fl *freeList, a *amtNode, shift uint, child *node) *amtNode {
	h := child.hsh
	if a == nil {
		a = fl.level()
		a.slots = growSlots(a.slots)
		if shift >= amtMaxShift {
			a.bitmap = 1
			a.slots[0] = &amtCollision{entries: []*node{child}}
			return a
		}
		a.bitmap = uint32(1) << ((h >> shift) & amtMask)
		a.slots[0] = child
		return a
	}
	if shift >= amtMaxShift {
		c := a.slots[0].(*amtCollision)
		c.entries = append(c.entries, child)
		return a
	}
	bit := uint32(1) << ((h >> shift) & amtMask)
	idx := a.slotIndex(bit)
	if a.bitmap&bit == 0 {
		a.bitmap |= bit
		a.slots = growSlots(a.slots)
		copy(a.slots[idx+1:], a.slots[idx:])
		a.slots[idx] = child
		return a
	}
	switch s := a.slots[idx].(type) {
	case *node:
		// Two ids share this slot: push the old entry one level down
		// next to the new one.
		a.slots[idx] = amtBuild(fl, amtBuild(fl, nil, shift+amtBits, s), shift+amtBits, child)
	case *amtNode:
		a.slots[idx] = amtBuild(fl, s, shift+amtBits, child)
	}
	return a
}

// growSlots lengthens a level's slot array by one. A full array grows
// to the next multiple of 8 slots (at most the trie width): a small
// directory fills one allocation instead of doubling through four, and
// a recycled array fits most directories.
func growSlots(s []any) []any {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	g := make([]any, len(s)+1, min((len(s)+8)&^7, amtWidth))
	copy(g, s)
	return g
}

// amtDel removes the entry with id h named name from the trie in
// place. It returns the trie (nil once it empties; emptied levels are
// dropped from their parents and handed to fl) and the removed entry
// (nil if absent).
func amtDel(fl *freeList, a *amtNode, h uint64, shift uint, name string) (*amtNode, *node) {
	if a == nil {
		return nil, nil
	}
	if shift >= amtMaxShift {
		c := a.slots[0].(*amtCollision)
		for i, e := range c.entries {
			if e.name == name {
				if len(c.entries) == 1 {
					a.slots[0] = nil
					fl.putLevel(a)
					return nil, e
				}
				c.entries = append(c.entries[:i], c.entries[i+1:]...)
				return a, e
			}
		}
		return a, nil
	}
	bit := uint32(1) << ((h >> shift) & amtMask)
	if a.bitmap&bit == 0 {
		return a, nil
	}
	idx := a.slotIndex(bit)
	var removed *node
	switch s := a.slots[idx].(type) {
	case *node:
		if s.hsh != h || s.name != name {
			return a, nil
		}
		removed = s
	case *amtNode:
		sub, rm := amtDel(fl, s, h, shift+amtBits, name)
		if rm == nil || sub != nil {
			return a, rm
		}
		removed = rm
	default:
		return a, nil
	}
	a.bitmap &^= bit
	copy(a.slots[idx:], a.slots[idx+1:])
	a.slots[len(a.slots)-1] = nil
	a.slots = a.slots[:len(a.slots)-1]
	if a.bitmap == 0 {
		fl.putLevel(a)
		return nil, removed
	}
	return a, removed
}

// copyNode deep-copies a subtree into nodes and trie levels drawn
// from fl, with the same shape, so the copy shares nothing with the
// original.
func copyNode(fl *freeList, n *node) *node {
	c := fl.node()
	*c = *n
	c.kids = copyAMT(fl, n.kids)
	return c
}

func copyAMT(fl *freeList, a *amtNode) *amtNode {
	if a == nil {
		return nil
	}
	c := fl.level()
	c.bitmap = a.bitmap
	if cap(c.slots) < len(a.slots) {
		c.slots = make([]any, 0, len(a.slots))
	}
	for _, s := range a.slots {
		switch e := s.(type) {
		case *node:
			c.slots = append(c.slots, copyNode(fl, e))
		case *amtNode:
			c.slots = append(c.slots, copyAMT(fl, e))
		case *amtCollision:
			entries := make([]*node, len(e.entries))
			for j, n := range e.entries {
				entries[j] = copyNode(fl, n)
			}
			c.slots = append(c.slots, &amtCollision{entries: entries})
		}
	}
	return c
}

// freeList recycles the nodes and trie levels of subtrees that leave a
// store's tree (Rm, a graft's displaced children), so steady churn — a
// guest's ~40 nodes written on create and removed on destroy — reuses
// them instead of feeding the GC. No tags or epochs are needed: nothing
// shares nodes (snapshots and grafts copy), and no operation touches a
// node after a mutation could have detached it (reads copy what they
// reply with before their charge), so a detached subtree is garbage
// the moment it leaves the tree. A nil *freeList allocates and keeps
// nothing. Each list is bounded, so one huge Rm cannot pin memory.
type freeList struct {
	nodes  []*node
	levels []*amtNode
}

const freeMax = 8192

// node returns a zeroed node.
func (fl *freeList) node() *node {
	if fl == nil || len(fl.nodes) == 0 {
		return &node{}
	}
	n := fl.nodes[len(fl.nodes)-1]
	fl.nodes = fl.nodes[:len(fl.nodes)-1]
	return n
}

// level returns an empty trie level, keeping a recycled level's slot
// array for reuse.
func (fl *freeList) level() *amtNode {
	if fl == nil || len(fl.levels) == 0 {
		return &amtNode{}
	}
	a := fl.levels[len(fl.levels)-1]
	fl.levels = fl.levels[:len(fl.levels)-1]
	return a
}

// putLevel takes an emptied trie level.
func (fl *freeList) putLevel(a *amtNode) {
	if fl != nil && len(fl.levels) < freeMax {
		*a = amtNode{slots: a.slots[:0]}
		fl.levels = append(fl.levels, a)
	}
}

// put takes a detached subtree: n and everything beneath it.
func (fl *freeList) put(n *node) {
	if fl == nil {
		return
	}
	fl.putKids(n.kids)
	if len(fl.nodes) < freeMax {
		*n = node{}
		fl.nodes = append(fl.nodes, n)
	}
}

// putKids takes a detached trie and every subtree in it.
func (fl *freeList) putKids(a *amtNode) {
	if fl == nil || a == nil {
		return
	}
	for i, s := range a.slots {
		switch e := s.(type) {
		case *node:
			fl.put(e)
		case *amtNode:
			fl.putKids(e)
		case *amtCollision:
			for _, n := range e.entries {
				fl.put(n)
			}
		}
		a.slots[i] = nil
	}
	fl.putLevel(a)
}

// amtIter visits every entry in trie order (deterministic for a given
// content, unlike Go map iteration). fn returning false stops the walk.
func amtIter(a *amtNode, fn func(*node) bool) bool {
	if a == nil {
		return true
	}
	for _, s := range a.slots {
		switch e := s.(type) {
		case *node:
			if !fn(e) {
				return false
			}
		case *amtNode:
			if !amtIter(e, fn) {
				return false
			}
		case *amtCollision:
			for _, n := range e.entries {
				if !fn(n) {
					return false
				}
			}
		}
	}
	return true
}

// childByID returns n's direct child by precomputed segment id.
func (n *node) childByID(h uint64, name string) *node {
	if n.kids == nil {
		return nil
	}
	return amtGet(n.kids, h, name)
}

// eachChild iterates n's direct children.
func (n *node) eachChild(fn func(*node) bool) {
	amtIter(n.kids, fn)
}

// appendChildren appends every child of n to dst in trie (hash)
// order. It exists alongside eachChild for hot paths: a collecting
// callback closes over its destination and Go heap-allocates the
// closure per call, while this plain recursion allocates nothing.
func appendChildren(a *amtNode, dst []*node) []*node {
	if a == nil {
		return dst
	}
	for _, s := range a.slots {
		switch c := s.(type) {
		case *node:
			dst = append(dst, c)
		case *amtNode:
			dst = appendChildren(c, dst)
		case *amtCollision:
			dst = append(dst, c.entries...)
		}
	}
	return dst
}

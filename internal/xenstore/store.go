// Package xenstore implements the centralized registry that stock Xen
// builds its control plane on (paper §4.1/§4.2) — the component
// LightVM removes. It is a real hierarchical store: a tree of nodes
// with values, per-node generation counters, prefix watches, and
// transactions that fail and retry on conflict.
//
// The tree is mutated in place (see tree.go). Checkpoint save and
// clone capture one guest's subtree, as a serialized blob or a
// Snapshot copy, and restore grafts a copy of it back (snapshot.go).
//
// Every operation charges the virtual clock the paper's message cost:
// "each operation requires sending a message and receiving an
// acknowledgment, each triggering a software interrupt: a single read
// or write thus triggers at least two, and most often four, software
// interrupts and multiple domain changes" (§4.2). On top of that, the
// store charges for the nodes it actually touches (path resolution,
// directory listing, commit validation, watch matching), which is what
// makes creation cost grow with the number of guests, and it appends
// to 20 access-log files that rotate every 13,215 lines — the spikes
// in Fig. 5 and Fig. 9.
//
// Concurrency contract: every operation, snapshots included, runs on
// the store's own timeline, like the real single-threaded oxenstored
// event loop and like the rest of the simulation, which shares one
// sim.Clock per timeline. A Snapshot, once taken, is a private copy
// that any goroutine may read.
//
// Hot-path structure (profile-guided; DESIGN.md §9): path segments are
// hashed once while the path is being split (hashIter) and compared as
// 64-bit ids from then on.
package xenstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/sim"
)

// Errors.
var (
	ErrNoEnt  = errors.New("xenstore: no such node")
	ErrAgain  = errors.New("xenstore: transaction conflict, retry")
	ErrBadTxn = errors.New("xenstore: no such transaction")
	ErrExists = errors.New("xenstore: node exists")
	// ErrTxnRetriesExhausted is returned by Store.Txn when a body keeps
	// conflicting past its retry budget; it wraps ErrAgain, so callers
	// can match either the exhaustion or the underlying conflict.
	ErrTxnRetriesExhausted = errors.New("xenstore: transaction retries exhausted")

	errRmRoot = errors.New("xenstore: cannot remove root")
)

// noEntError is the concrete miss error. The hot paths used to build
// it with fmt.Errorf("%w: %s", ...) — several allocations per miss,
// and transaction observes produced (and discarded) one per absent
// node. This type defers all formatting to Error() and still matches
// errors.Is(err, ErrNoEnt) via Unwrap.
type noEntError struct{ path string }

func (e *noEntError) Error() string { return "xenstore: no such node: " + e.path }
func (e *noEntError) Unwrap() error { return ErrNoEnt }

// Counters aggregates store activity for tests and Fig. 5 attribution.
type Counters struct {
	Ops          uint64
	TxnCommits   uint64
	TxnConflicts uint64
	LogRotations uint64
	// Snapshots counts subtree captures (Snapshot, SnapshotSubtree,
	// SerializeSubtree).
	Snapshots uint64
	// Stalls counts injected store-daemon freezes (fault plane).
	Stalls uint64
	// InjectedConflicts counts commits aborted by the fault plane
	// (a subset of TxnConflicts).
	InjectedConflicts uint64
}

// Store is the oxenstored-equivalent.
type Store struct {
	clock *sim.Clock
	root  *node
	gen   uint64   // generation counter
	free  freeList // detached nodes for reuse (tree.go)

	// muts counts mutations (including SetPerm, which changes no
	// generation). Reads use it to skip their end-of-round-trip
	// re-resolve when nothing changed during the charge.
	muts uint64

	// resCache memoizes the most recent resolve against the current
	// mutation count: toolstack flows re-read one path hundreds of
	// times between mutations (libxl's state re-reads), and each hit
	// skips the physical trie walk while still charging the identical
	// modeled cost.
	resCacheMuts    uint64
	resCachePath    string
	resCacheNode    *node
	resCacheTouched int

	watches   []*watch
	nextWatch int
	// watchIndex buckets watches by their full normalized prefix: the
	// watches matching a write are exactly those registered on one of
	// the written path's ancestors, so delivery looks up O(depth)
	// buckets instead of scanning every registered watch. rootWatches
	// holds watches on "/" (they match every path).
	watchIndex  map[string][]*watch
	rootWatches []*watch
	// Per-commit watch delivery batching (watch.go): merged candidate
	// lists are built in per-depth scratch buffers and the depth-0 list
	// is cached across consecutive fires of the same path. mergeBufs is
	// the per-depth bucket scratch for the id-order merge.
	fireBufs   [][]*watch
	mergeBufs  [][][]*watch
	fireDepth  int
	batchPath  string
	batchValid bool
	batchCands []*watch

	// Transactions: open set, recycled txn structs, and the path symbol
	// table interning txn-observed paths to dense ids (txn.go).
	openTxns []*txn
	freeTxns []*txn
	nextTxn  TxnID
	pathIDs  map[string]uint32
	paths    []string

	// Logging: one logical line counter stands in for the 20 files
	// (they rotate together).
	LoggingEnabled bool
	logLines       int

	// Connections is the number of open store connections (one per
	// running guest with a xenbus ring, plus Dom0 daemons). The store
	// daemon's event loop scans every connection per operation, so
	// each op pays Connections × costs.XSPerConnection. The toolstack
	// maintains this count as guests come and go.
	Connections int

	// Faults, when non-nil, lets the fault plane stall operations and
	// abort transaction commits (faults.KindStoreStall /
	// faults.KindTxnConflict). Nil costs one pointer check per op.
	Faults *faults.Injector

	// variant selects oxenstored (default) or the slower cxenstored.
	variant Variant
	// nodeQuota is the per-domain node limit (see quota.go).
	nodeQuota int
	// ownerNodes tracks quota usage per owning domain.
	ownerNodes map[int]int
	// watchQuota is the per-domain watch limit (see quota.go).
	watchQuota int
	// ownerWatches tracks registered watches per owning domain.
	ownerWatches map[int]int

	Count Counters
}

// New creates an empty store on clock with access logging enabled
// (the stock oxenstored configuration).
func New(clock *sim.Clock) *Store {
	return &Store{
		clock:          clock,
		root:           &node{name: "/", hsh: nameHash("/"), size: 1},
		LoggingEnabled: true,
		nodeQuota:      DefaultNodeQuota,
		ownerNodes:     make(map[int]int),
		watchQuota:     DefaultWatchQuota,
	}
}

// hashIter walks a path's components without allocating ("/a/b/c"
// yields "a", "b", "c" as substrings of the input), each together with
// its 64-bit FNV-1a id, computed in the same pass that finds the
// separators. Resolution and writes are the store's hottest loops;
// they descend the trie on the id and only touch the segment string to
// guard against full-hash collisions. Empty components ("//" runs) are
// skipped, so every node name the store ever creates is a valid
// segment — which keeps snapshot serialization canonical for any
// reachable tree (FuzzPath leans on this).
type hashIter struct {
	rest string
}

// hashSegments returns a hashing iterator over path's components.
func hashSegments(path string) hashIter {
	i, j := 0, len(path)
	for i < j && path[i] == '/' {
		i++
	}
	for j > i && path[j-1] == '/' {
		j--
	}
	return hashIter{rest: path[i:j]}
}

// next returns the following component and its segment id.
func (it *hashIter) next() (seg string, h uint64, ok bool) {
	for it.rest != "" {
		seg = it.rest
		if i := strings.IndexByte(seg, '/'); i >= 0 {
			seg, it.rest = seg[:i], seg[i+1:]
		} else {
			it.rest = ""
		}
		if seg == "" {
			continue
		}
		h = fnvOffset64
		for k := 0; k < len(seg); k++ {
			h ^= uint64(seg[k])
			h *= fnvPrime64
		}
		return seg, h, true
	}
	return "", 0, false
}

// chargeOp accounts one protocol round trip plus extra node touches.
func (s *Store) chargeOp(nodesTouched int) {
	s.Count.Ops++
	d := costs.XSRequestInterrupts*costs.SoftIRQ +
		costs.XSRequestCrossings*costs.DomainCrossing +
		costs.XSProcess +
		sim.Duration(nodesTouched)*costs.XSPerNodeTouch +
		sim.Duration(s.Connections)*costs.XSPerConnection
	d += s.variantExtra(costs.XSProcess + sim.Duration(nodesTouched)*costs.XSPerNodeTouch)
	if s.Faults.Fire(faults.KindStoreStall) {
		// The store daemon freezes (GC pause, log fsync, scheduling
		// gap): the requesting client simply sees a slow reply.
		s.Count.Stalls++
		d += costs.XSStoreStall
	}
	s.clock.Sleep(d)
	s.logAccess()
}

// logAccess appends one line to each of the 20 access logs and rotates
// them at the threshold, charging the rotation pause.
func (s *Store) logAccess() {
	if !s.LoggingEnabled {
		return
	}
	s.logLines++
	s.clock.Sleep(costs.XSLogFiles * costs.XSLogLine)
	if s.logLines >= costs.XSLogRotateLines {
		s.logLines = 0
		s.Count.LogRotations++
		s.clock.Sleep(costs.XSLogRotateCost)
	}
}

// resolveFrom walks a path from root without allocating, returning the
// node (nil if missing) and the number of nodes visited. Shared by the
// live store and snapshots.
func resolveFrom(root *node, path string) (*node, int) {
	it := hashSegments(path)
	n := root
	touched := 1
	for {
		seg, h, ok := it.next()
		if !ok {
			return n, touched
		}
		child := n.childByID(h, seg)
		if child == nil {
			return nil, touched
		}
		n = child
		touched++
	}
}

// resolve walks a path in the live tree.
func (s *Store) resolve(path string) (*node, int) {
	if s.resCacheMuts == s.muts && s.resCachePath == path && s.resCachePath != "" {
		return s.resCacheNode, s.resCacheTouched
	}
	n, touched := resolveFrom(s.root, path)
	s.resCacheMuts, s.resCachePath = s.muts, path
	s.resCacheNode, s.resCacheTouched = n, touched
	return n, touched
}

// lookup resolves a path, returning the node and the number of nodes
// visited. Missing nodes return ErrNoEnt.
func (s *Store) lookup(path string) (*node, int, error) {
	n, touched := s.resolve(path)
	if n == nil {
		return nil, touched, &noEntError{path}
	}
	return n, touched, nil
}

// leafOp describes what a write does to the final node of its path.
type leafOp struct {
	kind  leafKind
	value string // leafValue: the value to set
	repl  *node  // leafReplace: the subtree to install
}

type leafKind int

const (
	// leafEnsure leaves an existing final node untouched (Mkdir).
	leafEnsure leafKind = iota
	// leafValue sets the final node's value with a generation bump.
	leafValue
	// leafReplace makes the final node a copy of a prepared subtree
	// (GraftSnapshot), keeping its name; whatever was beneath it goes
	// to the free list.
	leafReplace
)

// applyLeaf applies op to the final node of a write and returns how
// much its subtree grew.
func (s *Store) applyLeaf(n *node, op *leafOp) int {
	switch op.kind {
	case leafValue:
		n.value = op.value
		s.gen++
		n.gen = s.gen
	case leafReplace:
		grown := op.repl.size - n.size
		s.free.putKids(n.kids)
		name, hsh := n.name, n.hsh
		*n = *op.repl
		n.name, n.hsh = name, hsh
		op.repl.kids = nil
		s.free.put(op.repl)
		return grown
	}
	return 0
}

// applyWrite walks the remaining path from n, creating missing
// components (owned by owner, gen 0 — see node) and applying op to the
// final node. Generation bumps happen top-down: a parent's generation
// is bumped at the moment a child is created under it, before deeper
// creations, and the final node's value bump comes last. Every node on
// the path has its subtree size updated. It returns the nodes visited,
// how much n's subtree grew, and whether any component was created.
func (s *Store) applyWrite(n *node, it *hashIter, owner int, op *leafOp) (touched, grown int, created bool) {
	seg, h, ok := it.next()
	if !ok {
		return 1, s.applyLeaf(n, op), false
	}
	child := n.childByID(h, seg)
	if child == nil {
		child = s.free.node()
		child.name, child.hsh, child.owner, child.size = seg, h, owner, 1
		n.kids = amtBuild(&s.free, n.kids, 0, child)
		n.nkids++
		s.gen++
		n.gen = s.gen
		created, grown = true, 1
	}
	t, g, deeper := s.applyWrite(child, it, owner, op)
	grown += g
	n.size += grown
	return t + 1, grown, created || deeper
}

// Write sets path to value (creating intermediate directories),
// firing matching watches.
func (s *Store) Write(path, value string) {
	s.WriteAs(0, path, value)
}

// WriteAs is Write with an owning domain for new nodes.
func (s *Store) WriteAs(owner int, path, value string) {
	it := hashSegments(path)
	op := leafOp{kind: leafValue, value: value}
	touched, _, _ := s.applyWrite(s.root, &it, owner, &op)
	s.muts++
	s.chargeOp(touched + s.matchCost(path))
	s.fireWatches(path)
}

// readAt runs one read op on path, charged for the walk, and returns a
// copy of the node as the reply carries it: as of the END of the
// charged round trip. Clock events that fire during the charge (a
// backend's setup commit, a watch callback) may update the node before
// the reply is delivered, and the client sees that update — the
// behaviour of a store daemon that serializes the reply after
// processing everything ahead of it. Whether the node exists is
// decided at the START of the op (a node appearing mid-charge does not
// turn a miss into a hit), and a node removed mid-charge replies with
// its state at op start, so that state is copied before the charge.
// The mutation counter makes the common case — nothing happened
// during the charge — free: the second resolve runs only when
// something actually changed. ok is false for a miss.
func (s *Store) readAt(path string) (n node, ok bool) {
	at, touched := s.resolve(path)
	if at != nil {
		n = *at
	}
	muts := s.muts
	s.chargeOp(touched)
	if at == nil {
		return n, false
	}
	if s.muts != muts {
		if cur, _ := s.resolve(path); cur != nil {
			n = *cur
		}
	}
	return n, true
}

// Read returns the value at path, as of the end of the charged round
// trip (see readAt).
func (s *Store) Read(path string) (string, error) {
	n, ok := s.readAt(path)
	if !ok {
		return "", &noEntError{path}
	}
	return n.value, nil
}

// Exists reports whether path resolves.
func (s *Store) Exists(path string) bool {
	n, touched := s.resolve(path)
	s.chargeOp(touched)
	return n != nil
}

// Mkdir creates a directory node.
func (s *Store) Mkdir(path string) {
	it := hashSegments(path)
	op := leafOp{kind: leafEnsure}
	touched, _, created := s.applyWrite(s.root, &it, 0, &op)
	if created {
		s.muts++
		s.chargeOp(touched + s.matchCost(path))
		s.fireWatches(path)
	} else {
		s.chargeOp(touched)
	}
}

// Directory lists the children of path in sorted order. Listing
// touches every child — this is one of the O(#guests) costs on the
// creation path when listing /local/domain.
func (s *Store) Directory(path string) ([]string, error) {
	var out []string
	if _, err := s.listed(path, &out); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// DirectoryLen is Directory returning only the child count: the same
// op, charge and end-of-charge view, without building or sorting the
// listing. The toolstack lists /local/domain on every creation and
// looks at nothing but its size.
func (s *Store) DirectoryLen(path string) (int, error) {
	return s.listed(path, nil)
}

// listed runs a directory listing op on path, charged for the walk
// plus one touch per child. It returns the child count and, when names
// is non-nil, sets *names to the child names, both as of the end of
// the charge, like Read (the cost was fixed at op start). A directory
// removed during the charge is listed as it was at op start, so the
// listing is taken before the charge.
func (s *Store) listed(path string, names *[]string) (int, error) {
	n, touched := s.resolve(path)
	if n == nil {
		s.chargeOp(touched)
		return 0, &noEntError{path}
	}
	nkids := n.nkids
	if names != nil {
		*names = appendChildNames(n.kids, make([]string, 0, nkids))
	}
	muts := s.muts
	s.chargeOp(touched + nkids)
	if s.muts != muts {
		if cur, _ := s.resolve(path); cur != nil {
			nkids = cur.nkids
			if names != nil {
				*names = appendChildNames(cur.kids, (*names)[:0])
			}
		}
	}
	return nkids, nil
}

// appendChildNames collects a trie's entry names into buf. It is a
// plain function (no closure), so a listing allocates only its result.
func appendChildNames(a *amtNode, buf []string) []string {
	if a == nil {
		return buf
	}
	for _, s := range a.slots {
		switch e := s.(type) {
		case *node:
			buf = append(buf, e.name)
		case *amtNode:
			buf = appendChildNames(e, buf)
		case *amtCollision:
			for _, n := range e.entries {
				buf = append(buf, n.name)
			}
		}
	}
	return buf
}

// applyRm detaches the subtree at (remaining path, final component
// leaf) from the tree below n, shrinking every ancestor's size and
// bumping the detached node's parent's generation. The visited-node
// count is one per ancestor reached, whether or not the final
// component exists. removed is nil when nothing was found.
func (s *Store) applyRm(n *node, it *hashIter, leaf string, leafH uint64) (removed *node, touched int) {
	next, nextH, more := it.next()
	if !more {
		kids, rm := amtDel(&s.free, n.kids, leafH, 0, leaf)
		if rm == nil {
			return nil, 1
		}
		n.kids = kids
		n.nkids--
		n.size -= rm.size
		s.gen++
		n.gen = s.gen
		return rm, 1
	}
	child := n.childByID(leafH, leaf)
	if child == nil {
		return nil, 1
	}
	rm, t := s.applyRm(child, it, next, nextH)
	if rm != nil {
		n.size -= rm.size
	}
	return rm, t + 1
}

// Rm removes path and its subtree.
func (s *Store) Rm(path string) error {
	it := hashSegments(path)
	leaf, leafH, ok := it.next()
	if !ok {
		return errRmRoot
	}
	removed, touched := s.applyRm(s.root, &it, leaf, leafH)
	if removed == nil {
		s.chargeOp(touched)
		return &noEntError{path}
	}
	// Return quota to each removed node's actual owner, so the ledger
	// always matches the tree (CheckConsistency's invariant).
	s.debitOwners(removed)
	size := removed.size
	s.free.put(removed)
	s.muts++
	s.chargeOp(touched + size + s.matchCost(path))
	s.fireWatches(path)
	return nil
}

// NumNodes reports the total node count (diagnostic; grows ~40 per
// guest with the stock toolstack). O(1): subtree sizes are maintained
// on every mutation.
func (s *Store) NumNodes() int { return s.root.size - 1 }

// WriteUniqueName records a guest name under dir, performing the
// uniqueness check the paper calls out: "the XenStore compares the new
// entry against the names of all other already-running guests before
// accepting the new guest's name" (§4.2). The scan happens inside the
// store daemon (one protocol op from the client's perspective) but its
// cost is linear in the number of registered guests — and the
// comparisons are real.
func (s *Store) WriteUniqueName(dir, key, name string) error {
	n, _ := s.resolve(dir)
	if n != nil {
		// The comparisons run up front; the per-name charge then falls
		// as one batch. Clock callbacks during the charge see the same
		// instants, and the scan the same names, as interleaving them;
		// the op is charged for the names present when it started.
		visited, dup := amtFindValue(n.kids, name)
		nkids := n.nkids
		s.clock.SleepN(visited, costs.XSNameUniquenessPerGuest)
		if dup {
			s.chargeOp(nkids)
			return fmt.Errorf("%w: name %q", ErrExists, name)
		}
		// The scan touches every registered name whether or not a
		// duplicate turns up (§4.2): accepting a unique name costs the
		// same full comparison pass, so the successful path charges the
		// scan too.
		s.chargeOp(nkids)
	}
	s.WriteAs(0, dir+"/"+key, name)
	return nil
}

// amtFindValue compares name against a trie's entry values in trie
// order, stopping at the first match. It reports how many entries were
// compared, the match included.
func amtFindValue(a *amtNode, name string) (visited int, found bool) {
	if a == nil {
		return 0, false
	}
	for _, s := range a.slots {
		switch e := s.(type) {
		case *node:
			visited++
			if e.value == name {
				return visited, true
			}
		case *amtNode:
			v, ok := amtFindValue(e, name)
			visited += v
			if ok {
				return visited, true
			}
		case *amtCollision:
			for _, n := range e.entries {
				visited++
				if n.value == name {
					return visited, true
				}
			}
		}
	}
	return visited, false
}

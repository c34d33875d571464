package xenstore

import (
	"errors"
	"fmt"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/sim"
)

// Implementation variants and per-domain quotas — two pieces of real
// xenstored behaviour the paper leans on:
//
//   - Footnote 3: "this already uses oxenstored, the faster of the two
//     available implementations of the XenStore. Results with
//     cxenstored show much higher overheads." The C implementation
//     processes requests more slowly and walks its connection list
//     with worse constants.
//   - xenstored enforces a per-domain node quota (default 1000 nodes)
//     so one guest cannot fill the store — the DoS concern of §1
//     applied to the control plane itself.

// Variant selects the store daemon implementation.
type Variant int

// Store daemon implementations.
const (
	// Oxenstored is the OCaml daemon the paper benchmarks against.
	Oxenstored Variant = iota
	// Cxenstored is the C daemon with "much higher overheads".
	Cxenstored
)

func (v Variant) String() string {
	if v == Cxenstored {
		return "cxenstored"
	}
	return "oxenstored"
}

// cxenstoredFactor multiplies the daemon-side processing and
// connection-scan costs for the C implementation.
const cxenstoredFactor = 3

// ErrQuota is the sentinel all quota refusals match via errors.Is.
var ErrQuota = errors.New("xenstore: domain node quota exceeded")

// DefaultNodeQuota mirrors xenstored's quota-nb-entries default.
const DefaultNodeQuota = 1000

// DefaultWatchQuota mirrors xenstored's quota-nb-watch-per-domain
// default.
const DefaultWatchQuota = 128

// ErrQuotaExceeded is the typed quota refusal: which domain hit which
// per-domain limit. It matches ErrQuota under errors.Is, so existing
// sentinel checks keep working; overload-aware callers errors.As it to
// turn the refusal into a typed rejection instead of a run abort.
type ErrQuotaExceeded struct {
	Domain   int
	Resource string // "nodes" or "watches"
	Limit    int
	Used     int
}

func (e *ErrQuotaExceeded) Error() string {
	return fmt.Sprintf("xenstore: domain %d %s quota exceeded (%d/%d)",
		e.Domain, e.Resource, e.Used, e.Limit)
}

// Is makes every typed refusal match the ErrQuota sentinel.
func (e *ErrQuotaExceeded) Is(target error) bool { return target == ErrQuota }

// SetVariant switches the daemon implementation (affects every
// subsequent operation's cost).
func (s *Store) SetVariant(v Variant) { s.variant = v }

// VariantName reports the active implementation.
func (s *Store) VariantName() string { return s.variant.String() }

// SetNodeQuota sets the per-domain node limit (0 disables checks).
func (s *Store) SetNodeQuota(limit int) { s.nodeQuota = limit }

// SetWatchQuota sets the per-domain watch limit (0 disables checks).
func (s *Store) SetWatchQuota(limit int) { s.watchQuota = limit }

// OwnerWatches reports the watch count charged to a domain.
func (s *Store) OwnerWatches(owner int) int { return s.ownerWatches[owner] }

// ChargeRefusal charges one daemon round trip — the cost of the
// daemon refusing an operation. Quota injection sites outside the
// store (the toolstack create paths) pay it before surfacing a typed
// refusal, so an injected quota exhaustion costs what a real one does.
func (s *Store) ChargeRefusal() { s.chargeOp(1) }

// quotaFault consults the fault plane's store-quota kind: when it
// fires, the daemon behaves as if the domain were already at its
// limit for resource. One daemon round trip is charged — the cost of
// being told no — and the typed refusal is returned.
func (s *Store) quotaFault(owner int, resource string, limit, used int) error {
	if s.Faults.Fire(faults.KindStoreQuota) {
		s.chargeOp(1)
		return &ErrQuotaExceeded{Domain: owner, Resource: resource, Limit: limit, Used: used}
	}
	return nil
}

// chargeQuota tracks per-owner node counts for quota enforcement.
// Dom0 is never recorded: it is unquota'd, and keeping it out of the
// ledger preserves the invariant CheckConsistency audits — for every
// owner ≠ 0, ledger count == nodes in the tree owned by that domain.
func (s *Store) chargeQuota(owner int, delta int) error {
	if owner == 0 {
		return nil
	}
	if s.ownerNodes == nil {
		s.ownerNodes = make(map[int]int)
	}
	next := s.ownerNodes[owner] + delta
	if s.nodeQuota > 0 && next > s.nodeQuota {
		return &ErrQuotaExceeded{Domain: owner, Resource: "nodes",
			Limit: s.nodeQuota, Used: s.ownerNodes[owner]}
	}
	s.ownerNodes[owner] = next
	if next <= 0 {
		delete(s.ownerNodes, owner)
	}
	return nil
}

// debitOwners returns quota for every owned node in a removed subtree,
// crediting each node's actual owner (not whoever issued the remove).
// With an empty ledger there is nothing to return, so toolstack-only
// stores skip the walk entirely.
func (s *Store) debitOwners(n *node) {
	if len(s.ownerNodes) == 0 {
		return
	}
	if n.owner != 0 {
		if next := s.ownerNodes[n.owner] - 1; next <= 0 {
			delete(s.ownerNodes, n.owner)
		} else {
			s.ownerNodes[n.owner] = next
		}
	}
	n.eachChild(func(c *node) bool {
		s.debitOwners(c)
		return true
	})
}

// creditOwners charges every owned node in a grafted subtree to its
// owner. Restores are Dom0 operations, so quota limits are recorded
// but not enforced (a restore must not half-fail).
func (s *Store) creditOwners(n *node) {
	if n.owner != 0 {
		if s.ownerNodes == nil {
			s.ownerNodes = make(map[int]int)
		}
		s.ownerNodes[n.owner]++
	}
	n.eachChild(func(c *node) bool {
		s.creditOwners(c)
		return true
	})
}

// OwnerNodes reports the node count charged to a domain.
func (s *Store) OwnerNodes(owner int) int { return s.ownerNodes[owner] }

// WriteAsGuest performs a guest-originated write: unlike Dom0's
// toolstack writes, it is subject to the owner's node quota. It
// returns ErrQuota without modifying the store when the quota would be
// exceeded.
func (s *Store) WriteAsGuest(owner int, path, value string) error {
	if err := s.quotaFault(owner, "nodes", s.nodeQuota, s.OwnerNodes(owner)); err != nil {
		return err
	}
	// Count how many nodes the write would create.
	created := s.missingNodes(path)
	if created > 0 {
		if err := s.chargeQuota(owner, created); err != nil {
			s.chargeOp(1)
			return err
		}
	}
	s.WriteAs(owner, path, value)
	return nil
}

// WatchAsGuest registers a guest-originated watch, subject to the
// owner's watch quota (xenstored's quota-nb-watch-per-domain): the
// registration is refused with a typed *ErrQuotaExceeded when the
// domain is at its limit. Dom0 (owner 0) is unquota'd, as with nodes.
func (s *Store) WatchAsGuest(owner int, path, token string, fn WatchFn) (WatchID, error) {
	if err := s.quotaFault(owner, "watches", s.watchQuota, s.ownerWatches[owner]); err != nil {
		return 0, err
	}
	if owner != 0 && s.watchQuota > 0 && s.ownerWatches[owner] >= s.watchQuota {
		s.chargeOp(1)
		return 0, &ErrQuotaExceeded{Domain: owner, Resource: "watches",
			Limit: s.watchQuota, Used: s.ownerWatches[owner]}
	}
	id := s.Watch(path, token, fn)
	if owner != 0 {
		if s.ownerWatches == nil {
			s.ownerWatches = make(map[int]int)
		}
		s.ownerWatches[owner]++
		s.watchOwners(id, owner)
	}
	return id, nil
}

// missingNodes reports how many path components do not yet exist.
func (s *Store) missingNodes(path string) int {
	it := hashSegments(path)
	n := s.root
	missing := 0
	for {
		p, h, ok := it.next()
		if !ok {
			return missing
		}
		if missing > 0 {
			missing++
			continue
		}
		child := n.childByID(h, p)
		if child == nil {
			missing = 1
			continue
		}
		n = child
	}
}

// RmOwned removes a path on behalf of a guest. Quota is returned by
// Rm itself, to each removed node's actual owner — the issuing domain
// is only used for the error path, so a guest cannot launder another
// domain's quota by removing a mixed-ownership subtree.
func (s *Store) RmOwned(owner int, path string) error {
	if _, _, err := s.lookup(path); err != nil {
		s.chargeOp(1)
		return err
	}
	return s.Rm(path)
}

// variantExtra is folded into chargeOp: the C daemon pays the factor
// on its processing plus a harsher connection scan.
func (s *Store) variantExtra(base sim.Duration) sim.Duration {
	if s.variant == Cxenstored {
		return base*(cxenstoredFactor-1) +
			sim.Duration(s.Connections)*costs.XSPerConnection*(cxenstoredFactor-1)
	}
	return 0
}

package xenstore

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Node access control, as real xenstored enforces it: every node has
// an owning domain plus an access class for others. The toolstack
// (Dom0) bypasses checks; guests may read shared control data but can
// only write inside their own subtree. This is part of the isolation
// story the paper leans on — a guest must not be able to tamper with
// another guest's device negotiation.

// Perm is a node's access class for non-owners.
type Perm int

// Access classes (xenstored's n/r/w/b).
const (
	// PermNone: only the owner (and Dom0) may read or write.
	PermNone Perm = iota
	// PermRead: others may read.
	PermRead
	// PermWrite: others may write (rare; e.g. shared request dirs).
	PermWrite
	// PermBoth: others may read and write.
	PermBoth
)

func (p Perm) String() string {
	switch p {
	case PermRead:
		return "r"
	case PermWrite:
		return "w"
	case PermBoth:
		return "b"
	}
	return "n"
}

// ErrPermission is returned when a guest violates a node ACL.
var ErrPermission = errors.New("xenstore: permission denied")

// SetPerm sets a node's owner and access class (toolstack operation).
// Like real xenstored's SET_PERMS it does not bump the node's
// generation (ACL changes do not conflict transactions).
func (s *Store) SetPerm(path string, owner int, perm Perm) error {
	n, touched := s.resolve(path)
	if n == nil {
		s.chargeOp(touched)
		return &noEntError{path}
	}
	oldOwner := n.owner
	n.owner, n.perm = owner, perm
	s.muts++
	// Ownership moved: the node's quota charge follows it (recorded,
	// not enforced — SET_PERMS is a Dom0 operation and must not fail
	// halfway), keeping ledger == tree for every domain.
	if oldOwner != owner {
		if oldOwner != 0 {
			if next := s.ownerNodes[oldOwner] - 1; next <= 0 {
				delete(s.ownerNodes, oldOwner)
			} else {
				s.ownerNodes[oldOwner] = next
			}
		}
		if owner != 0 {
			if s.ownerNodes == nil {
				s.ownerNodes = make(map[int]int)
			}
			s.ownerNodes[owner]++
		}
	}
	s.chargeOp(touched)
	return nil
}

// PermOf reports a node's owner and access class (as of the end of the
// charged round trip, like Read).
func (s *Store) PermOf(path string) (owner int, perm Perm, err error) {
	n, ok := s.readAt(path)
	if !ok {
		return 0, PermNone, &noEntError{path}
	}
	return n.owner, n.perm, nil
}

// hasGuestPrefix reports whether p (normalized) starts with the bytes
// of "/local/domain/<domid>" — exactly strings.HasPrefix against the
// formatted prefix, without the Sprintf. (The plain byte-prefix
// semantics are deliberate: they are what the historical code checked,
// and guest path authority tests pin them.)
func hasGuestPrefix(domid int, p string) bool {
	const pre = "/local/domain/"
	if !strings.HasPrefix(p, pre) {
		return false
	}
	rest := p[len(pre):]
	var buf [20]byte
	d := strconv.AppendInt(buf[:0], int64(domid), 10)
	if len(rest) < len(d) {
		return false
	}
	for i := range d {
		if rest[i] != d[i] {
			return false
		}
	}
	return true
}

// guestDomainPrefix is the subtree a guest owns implicitly.
func guestDomainPrefix(domid int) string {
	return fmt.Sprintf("/local/domain/%d", domid)
}

// mayRead reports whether domid may read the node at path.
func (s *Store) mayRead(domid int, path string, n *node) bool {
	if domid == 0 || n.owner == domid {
		return true
	}
	if hasGuestPrefix(domid, normalize(path)) {
		return true
	}
	return n.perm == PermRead || n.perm == PermBoth
}

// mayWrite reports whether domid may write the node at path.
func (s *Store) mayWrite(domid int, path string, n *node) bool {
	if domid == 0 || (n != nil && n.owner == domid) {
		return true
	}
	if hasGuestPrefix(domid, normalize(path)) {
		return true
	}
	return n != nil && (n.perm == PermWrite || n.perm == PermBoth)
}

// GuestRead is a read issued by a guest domain, subject to ACLs.
func (s *Store) GuestRead(domid int, path string) (string, error) {
	n, ok := s.readAt(path) // end-of-round-trip semantics, like Read
	if !ok {
		return "", &noEntError{path}
	}
	if !s.mayRead(domid, path, &n) {
		return "", fmt.Errorf("%w: domain %d reading %s", ErrPermission, domid, path)
	}
	return n.value, nil
}

// GuestWrite is a quota- and ACL-checked write issued by a guest.
func (s *Store) GuestWrite(domid int, path, value string) error {
	n, _ := s.resolve(path)
	if !s.mayWrite(domid, path, n) {
		s.chargeOp(1)
		return fmt.Errorf("%w: domain %d writing %s", ErrPermission, domid, path)
	}
	return s.WriteAsGuest(domid, path, value)
}

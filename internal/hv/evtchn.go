package hv

import (
	"fmt"
	"sort"

	"lightvm/internal/costs"
)

// Port identifies an event channel endpoint.
type Port uint32

// Handler is invoked when an event is delivered on a port. Delivery
// happens synchronously at Send time (the upcall cost is charged
// first), mirroring how a software interrupt preempts the vCPU.
type Handler func()

// channel is an inter-domain event channel.
type channel struct {
	owner   DomID // allocating side
	peer    DomID
	handler Handler // receiver's upcall
	bound   bool
	pending uint64
}

// AllocUnboundPort allocates an event channel for owner that peer may
// later bind (the classic backend flow: backend allocates, writes the
// port to the store or device page, frontend binds).
func (h *Hypervisor) AllocUnboundPort(owner, peer DomID) (Port, error) {
	if _, err := h.Domain(owner); err != nil {
		return 0, err
	}
	h.nextPort++
	p := h.nextPort
	h.ports[p] = &channel{owner: owner, peer: peer}
	for _, e := range h.endpointsOf(owner, peer) {
		if e != nil {
			e.ports = append(e.ports, p)
		}
	}
	h.charge(costs.EventChannelAlloc)
	return p, nil
}

// BindPort attaches the peer's upcall handler to the channel.
func (h *Hypervisor) BindPort(p Port, peer DomID, fn Handler) error {
	ch, ok := h.ports[p]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchPort, p)
	}
	if ch.peer != peer {
		return fmt.Errorf("hv: port %d reserved for domain %d, bind from %d", p, ch.peer, peer)
	}
	ch.handler = fn
	ch.bound = true
	h.charge(0)
	return nil
}

// Send notifies the remote end of the channel. The upcall (software
// interrupt) is charged and the handler runs inline.
func (h *Hypervisor) Send(p Port) error {
	ch, ok := h.ports[p]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchPort, p)
	}
	h.Count.EvtchnSends++
	h.charge(costs.SoftIRQ)
	ch.pending++
	if ch.bound && ch.handler != nil {
		ch.handler()
	}
	return nil
}

// ClosePort tears down an event channel.
func (h *Hypervisor) ClosePort(p Port) error {
	if _, ok := h.ports[p]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchPort, p)
	}
	delete(h.ports, p)
	h.charge(0)
	return nil
}

// PortPending reports the number of undelivered-or-delivered sends on
// a port (diagnostic).
func (h *Hypervisor) PortPending(p Port) uint64 {
	if ch, ok := h.ports[p]; ok {
		return ch.pending
	}
	return 0
}

// NumPorts reports live event channels (diagnostic).
func (h *Hypervisor) NumPorts() int { return len(h.ports) }

// GrantRef names an entry in a domain's grant table.
type GrantRef uint32

// grant is a page shared by owner with a specific peer.
type grant struct {
	owner    DomID
	peer     DomID
	frame    uint64
	readonly bool
	mapped   bool
}

// GrantAccess shares frame of owner's memory with peer.
func (h *Hypervisor) GrantAccess(owner, peer DomID, frame uint64, readonly bool) (GrantRef, error) {
	if _, err := h.Domain(owner); err != nil {
		return 0, err
	}
	h.nextGrant++
	r := h.nextGrant
	h.grants[r] = &grant{owner: owner, peer: peer, frame: frame, readonly: readonly}
	for _, e := range h.endpointsOf(owner, peer) {
		if e != nil {
			e.grants = append(e.grants, r)
		}
	}
	h.charge(costs.GrantRefSetup)
	return r, nil
}

// MapGrant maps a granted page into peer's address space.
func (h *Hypervisor) MapGrant(r GrantRef, peer DomID) (uint64, error) {
	g, ok := h.grants[r]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchGrant, r)
	}
	if g.peer != peer {
		return 0, fmt.Errorf("hv: grant %d not for domain %d", r, peer)
	}
	g.mapped = true
	h.Count.GrantMaps++
	h.charge(costs.GrantRefSetup)
	return g.frame, nil
}

// EndGrant revokes a grant.
func (h *Hypervisor) EndGrant(r GrantRef) error {
	if _, ok := h.grants[r]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchGrant, r)
	}
	delete(h.grants, r)
	h.charge(0)
	return nil
}

// NumGrants reports live grant entries (diagnostic).
func (h *Hypervisor) NumGrants() int { return len(h.grants) }

// Endpoint names one side of an event channel or grant as seen by an
// auditor: which domains the entry ties together.
type Endpoint struct {
	Owner DomID
	Peer  DomID
}

// PortEndpoints lists every live event channel's (owner, peer) pair,
// sorted by port number. It is a pure inspection: no virtual time is
// charged, so invariant checkers can call it without perturbing runs.
func (h *Hypervisor) PortEndpoints() []Endpoint {
	ports := make([]Port, 0, len(h.ports))
	for p := range h.ports {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	out := make([]Endpoint, len(ports))
	for i, p := range ports {
		ch := h.ports[p]
		out[i] = Endpoint{Owner: ch.owner, Peer: ch.peer}
	}
	return out
}

// GrantEndpoints lists every live grant's (owner, peer) pair, sorted
// by grant ref. Clock-free, like PortEndpoints.
func (h *Hypervisor) GrantEndpoints() []Endpoint {
	refs := make([]GrantRef, 0, len(h.grants))
	for r := range h.grants {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	out := make([]Endpoint, len(refs))
	for i, r := range refs {
		g := h.grants[r]
		out[i] = Endpoint{Owner: g.owner, Peer: g.peer}
	}
	return out
}

// HasPort reports whether a port exists, without charging time.
func (h *Hypervisor) HasPort(p Port) bool {
	_, ok := h.ports[p]
	return ok
}

// HasGrant reports whether a grant ref exists, without charging time.
func (h *Hypervisor) HasGrant(r GrantRef) bool {
	_, ok := h.grants[r]
	return ok
}

// endpoints indexes the ports and grant refs one guest is an endpoint
// of, owner or peer, so DestroyDomain releases exactly what a scan of
// the whole host would. Port and grant numbers are never reused, so an
// entry that ClosePort or EndGrant already removed is simply not found.
type endpoints struct {
	ports  []Port
	grants []GrantRef
}

// release deletes every indexed port and grant from h's tables.
func (e *endpoints) release(h *Hypervisor) {
	for _, p := range e.ports {
		delete(h.ports, p)
	}
	for _, r := range e.grants {
		delete(h.grants, r)
	}
	e.ports, e.grants = e.ports[:0], e.grants[:0]
}

// endpointsOf returns the indexes a new port or grant between owner
// and peer is recorded in; an entry is nil when that side needs none
// (or repeats the owner).
func (h *Hypervisor) endpointsOf(owner, peer DomID) [2]*endpoints {
	out := [2]*endpoints{h.heldBy(owner)}
	if peer != owner {
		out[1] = h.heldBy(peer)
	}
	return out
}

// heldBy returns id's endpoint index, or nil when nothing can ever
// release by id: Dom0 is never destroyed, and an id below nextID that
// is not live is gone for good, because domain ids are never reused.
// An id not created yet gets an index that CreateDomain hands over.
func (h *Hypervisor) heldBy(id DomID) *endpoints {
	if id == 0 {
		return nil
	}
	if d, ok := h.domains[id]; ok {
		return &d.held
	}
	if id < h.nextID {
		return nil
	}
	e, ok := h.early[id]
	if !ok {
		if h.early == nil {
			h.early = make(map[DomID]*endpoints)
		}
		e = &endpoints{}
		h.early[id] = e
	}
	return e
}

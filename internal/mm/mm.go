// Package mm implements the host physical-memory manager used by the
// simulated hypervisor: a classic binary buddy allocator over 4 KiB
// pages with per-owner accounting.
//
// Memory consumption numbers in the reproduction (Fig. 14, the Fig. 10
// "memory wall" at ~3000 Docker containers) come from real allocations
// against this allocator rather than from closed-form arithmetic.
package mm

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// PageSize is the size of one machine page in bytes.
const PageSize = 4096

// MaxOrder bounds the largest buddy block at 2^MaxOrder pages (4 GiB).
const MaxOrder = 20

// ErrOutOfMemory is returned when a reservation cannot be satisfied.
var ErrOutOfMemory = errors.New("mm: out of memory")

// PFN is a page frame number (page index into host memory).
type PFN uint64

// Owner identifies who holds an allocation (a domain ID, a container
// ID, the Dom0 kernel...). Owner 0 is reserved for the host itself.
type Owner int64

// Extent is a contiguous run of pages handed out by the allocator.
type Extent struct {
	Base  PFN
	Order uint // length is 2^Order pages
}

// Pages returns the number of pages in the extent.
func (e Extent) Pages() uint64 { return 1 << e.Order }

// Bytes returns the extent size in bytes.
func (e Extent) Bytes() uint64 { return e.Pages() * PageSize }

// Allocator is a binary buddy allocator. It is not safe for concurrent
// use; the simulation is single-threaded by design.
type Allocator struct {
	totalPages uint64
	freePages  uint64
	free       [MaxOrder + 1]map[PFN]struct{}
	allocated  map[PFN]uint // base → order, for Free validation
	owners     map[PFN]Owner
	usage      map[Owner]uint64 // pages held per owner
	// byOwner indexes each owner's extent bases so FreeOwner (domain
	// teardown) releases them without scanning every live allocation
	// on the host. Extent counts per owner are small, so the linear
	// removal in Free stays cheap.
	byOwner map[Owner][]PFN
	// pressure withholds pages from the allocator's headroom without
	// touching the free lists: an allocation that would leave fewer
	// than this many pages free fails with ErrOutOfMemory. It models
	// dom0/host memory pressure (a balloon inflating, a noisy
	// neighbor) deterministically — no extents change hands, so the
	// buddy structure and every invariant stay exactly as they were.
	pressure uint64
}

// New creates an allocator managing totalBytes of host memory, rounded
// down to a whole number of pages.
func New(totalBytes uint64) *Allocator {
	a := &Allocator{
		totalPages: totalBytes / PageSize,
		allocated:  make(map[PFN]uint),
		owners:     make(map[PFN]Owner),
		usage:      make(map[Owner]uint64),
		byOwner:    make(map[Owner][]PFN),
	}
	for i := range a.free {
		a.free[i] = make(map[PFN]struct{})
	}
	// Seed the free lists with maximal aligned blocks.
	var pfn PFN
	remaining := a.totalPages
	for remaining > 0 {
		order := uint(MaxOrder)
		for order > 0 && (uint64(1)<<order > remaining || uint64(pfn)%(1<<order) != 0) {
			order--
		}
		a.free[order][pfn] = struct{}{}
		pfn += PFN(uint64(1) << order)
		remaining -= 1 << order
	}
	a.freePages = a.totalPages
	return a
}

// TotalPages reports the number of managed pages.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// FreePages reports the number of currently free pages.
func (a *Allocator) FreePages() uint64 { return a.freePages }

// UsedBytes reports total allocated bytes.
func (a *Allocator) UsedBytes() uint64 {
	return (a.totalPages - a.freePages) * PageSize
}

// OwnerBytes reports bytes currently held by owner.
func (a *Allocator) OwnerBytes(o Owner) uint64 { return a.usage[o] * PageSize }

// SetPressurePages withholds n pages from the allocation headroom:
// while set, any allocation that would leave fewer than n pages free
// fails with ErrOutOfMemory. Pass 0 to release the pressure. The
// withheld pages are never handed out and never enter the free lists'
// accounting, so this is reversible and invariant-neutral.
func (a *Allocator) SetPressurePages(n uint64) {
	if n > a.totalPages {
		n = a.totalPages
	}
	a.pressure = n
}

// PressurePages reports the currently withheld headroom.
func (a *Allocator) PressurePages() uint64 { return a.pressure }

// Owners returns all owners with live allocations, sorted.
func (a *Allocator) Owners() []Owner {
	out := make([]Owner, 0, len(a.usage))
	for o, pages := range a.usage {
		if pages > 0 {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// orderFor returns the smallest order whose block covers pages.
func orderFor(pages uint64) (uint, error) {
	if pages == 0 {
		return 0, errors.New("mm: zero-page allocation")
	}
	order := uint(0)
	for uint64(1)<<order < pages {
		order++
		if order > MaxOrder {
			return 0, fmt.Errorf("mm: allocation of %d pages exceeds max block", pages)
		}
	}
	return order, nil
}

// AllocPages allocates at least pages contiguous pages (rounded up to
// a power of two) for owner. Multi-extent callers who do not need
// contiguity should use AllocBytes.
func (a *Allocator) AllocPages(pages uint64, o Owner) (Extent, error) {
	order, err := orderFor(pages)
	if err != nil {
		return Extent{}, err
	}
	if a.pressure > 0 && uint64(1)<<order > a.freePages-minU64(a.pressure, a.freePages) {
		return Extent{}, ErrOutOfMemory
	}
	// Find the smallest order with a free block.
	from := order
	for from <= MaxOrder && len(a.free[from]) == 0 {
		from++
	}
	if from > MaxOrder {
		return Extent{}, ErrOutOfMemory
	}
	var base PFN
	for b := range a.free[from] { // take any block at this order
		base = b
		break
	}
	delete(a.free[from], base)
	// Split down to the requested order, returning the upper halves.
	for from > order {
		from--
		buddy := base + PFN(uint64(1)<<from)
		a.free[from][buddy] = struct{}{}
	}
	ext := Extent{Base: base, Order: order}
	a.allocated[base] = order
	a.owners[base] = o
	a.byOwner[o] = append(a.byOwner[o], base)
	a.usage[o] += ext.Pages()
	a.freePages -= ext.Pages()
	return ext, nil
}

// AllocBytes allocates enough extents to cover size bytes for owner,
// preferring large blocks; returns the extents.
func (a *Allocator) AllocBytes(size uint64, o Owner) ([]Extent, error) {
	pages := (size + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	// More than every free page can only fail: fail before sizing the
	// extent list by the request.
	if pages > a.freePages {
		return nil, ErrOutOfMemory
	}
	// Decompose the request into power-of-two extents (largest first),
	// covering it exactly at page granularity — no rounding waste, so
	// footprint accounting stays faithful: one MaxOrder block per
	// 2^MaxOrder pages, then one extent per set bit of the remainder.
	n := pages>>MaxOrder + uint64(bits.OnesCount64(pages&(1<<MaxOrder-1)))
	out := make([]Extent, 0, n)
	a.byOwner[o] = slices.Grow(a.byOwner[o], int(n))
	for pages > 0 {
		order := uint(0)
		for order < MaxOrder && uint64(1)<<(order+1) <= pages {
			order++
		}
		ext, err := a.AllocPages(uint64(1)<<order, o)
		if err != nil {
			// Roll back partial allocation.
			for _, e := range out {
				_ = a.Free(e)
			}
			if len(a.byOwner[o]) == 0 {
				delete(a.byOwner, o)
			}
			return nil, err
		}
		out = append(out, ext)
		pages -= ext.Pages()
	}
	return out, nil
}

// Free returns an extent to the allocator, coalescing buddies.
func (a *Allocator) Free(e Extent) error {
	order, ok := a.allocated[e.Base]
	if !ok || order != e.Order {
		return fmt.Errorf("mm: free of unallocated extent base=%d order=%d", e.Base, e.Order)
	}
	o := a.owners[e.Base]
	delete(a.allocated, e.Base)
	delete(a.owners, e.Base)
	if bases, ok := a.byOwner[o]; ok {
		for i, b := range bases {
			if b == e.Base {
				bases[i] = bases[len(bases)-1]
				a.byOwner[o] = bases[:len(bases)-1]
				break
			}
		}
		if len(a.byOwner[o]) == 0 {
			delete(a.byOwner, o)
		}
	}
	if a.usage[o] < e.Pages() {
		return fmt.Errorf("mm: owner %d accounting underflow", o)
	}
	a.usage[o] -= e.Pages()
	if a.usage[o] == 0 {
		delete(a.usage, o)
	}
	a.freePages += e.Pages()

	base, ord := e.Base, e.Order
	for ord < MaxOrder {
		buddy := base ^ PFN(uint64(1)<<ord)
		if _, free := a.free[ord][buddy]; !free {
			break
		}
		delete(a.free[ord], buddy)
		if buddy < base {
			base = buddy
		}
		ord++
	}
	a.free[ord][base] = struct{}{}
	return nil
}

// FreeOwner releases every extent held by owner and reports how many
// bytes were returned.
func (a *Allocator) FreeOwner(o Owner) uint64 {
	// Detach the owner's index first: Free's per-extent removal then
	// finds nothing to maintain, keeping this loop linear.
	bases := a.byOwner[o]
	delete(a.byOwner, o)
	var freed uint64
	for _, base := range bases {
		e := Extent{Base: base, Order: a.allocated[base]}
		freed += e.Bytes()
		if err := a.Free(e); err != nil {
			panic(err) // internal inconsistency
		}
	}
	return freed
}

// checkInvariant verifies free-list/accounting consistency (test hook).
func (a *Allocator) checkInvariant() error {
	var free uint64
	for order, blocks := range a.free {
		for base := range blocks {
			if uint64(base)%(1<<uint(order)) != 0 {
				return fmt.Errorf("mm: misaligned free block base=%d order=%d", base, order)
			}
			free += 1 << uint(order)
		}
	}
	if free != a.freePages {
		return fmt.Errorf("mm: free accounting %d != free lists %d", a.freePages, free)
	}
	var used uint64
	for _, pages := range a.usage {
		used += pages
	}
	if used != a.totalPages-a.freePages {
		return fmt.Errorf("mm: owner accounting %d != used %d", used, a.totalPages-a.freePages)
	}
	return nil
}

package hv

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"lightvm/internal/mm"
	"lightvm/internal/sim"
)

// scanModel is the reference for the per-domain endpoint index: it
// keeps every live port and grant in flat maps and, on destroy,
// releases whatever names the dying guest as owner or peer, which is
// the rule DestroyDomain applied by scanning the whole host.
type scanModel struct {
	ports  map[Port]Endpoint
	grants map[GrantRef]Endpoint
}

func (m *scanModel) destroy(id DomID) {
	for p, e := range m.ports {
		if e.Owner == id || e.Peer == id {
			delete(m.ports, p)
		}
	}
	for r, e := range m.grants {
		if e.Owner == id || e.Peer == id {
			delete(m.grants, r)
		}
	}
}

// check compares h's tables with the model, entry by entry.
func (m *scanModel) check(t *testing.T, h *Hypervisor, step int) {
	t.Helper()
	ports := make([]Port, 0, len(m.ports))
	for p := range m.ports {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	got := h.PortEndpoints()
	if len(got) != len(ports) {
		t.Fatalf("step %d: %d ports, model has %d", step, len(got), len(ports))
	}
	for i, p := range ports {
		if !h.HasPort(p) || got[i] != m.ports[p] {
			t.Fatalf("step %d: port %d = %+v (present %v), model %+v", step, p, got[i], h.HasPort(p), m.ports[p])
		}
	}
	refs := make([]GrantRef, 0, len(m.grants))
	for r := range m.grants {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	gotG := h.GrantEndpoints()
	if len(gotG) != len(refs) {
		t.Fatalf("step %d: %d grants, model has %d", step, len(gotG), len(refs))
	}
	for i, r := range refs {
		if !h.HasGrant(r) || gotG[i] != m.grants[r] {
			t.Fatalf("step %d: grant %d = %+v (present %v), model %+v", step, r, gotG[i], h.HasGrant(r), m.grants[r])
		}
	}
}

// TestEndpointIndexMatchesScan drives seeded random sequences of
// creates, destroys, port and grant allocations and closes, with
// endpoints drawn from Dom0, live guests, destroyed guests and ids
// never created (including ids created later), and checks after every
// destroy that the index released exactly what a full scan would.
func TestEndpointIndexMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := sim.NewRNG(seed)
		h := newHV()
		m := &scanModel{ports: map[Port]Endpoint{}, grants: map[GrantRef]Endpoint{}}
		var live, dead []DomID
		var ports []Port
		var grants []GrantRef
		pick := func() DomID {
			switch k := rng.Intn(5); {
			case k == 0:
				return 0
			case k == 1 && len(live) > 0:
				return live[rng.Intn(len(live))]
			case k == 2 && len(dead) > 0:
				return dead[rng.Intn(len(dead))]
			case k == 3:
				return h.nextID + DomID(rng.Intn(4)) // created later, maybe
			default:
				return []DomID{-1, 1 << 20, 1<<31 - 1}[rng.Intn(3)] // never created
			}
		}
		destroys := 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(20); {
			case op < 4:
				d, err := h.CreateDomain(Config{MaxMem: mib})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, d.ID)
			case op < 7 && len(live) > 0:
				i := rng.Intn(len(live))
				id := live[i]
				if err := h.DestroyDomain(id); err != nil {
					t.Fatalf("seed %d step %d: destroy %d: %v", seed, step, id, err)
				}
				live = append(live[:i], live[i+1:]...)
				dead = append(dead, id)
				m.destroy(id)
				m.check(t, h, step)
				destroys++
			case op < 12:
				owner, peer := pick(), pick()
				if p, err := h.AllocUnboundPort(owner, peer); err == nil {
					m.ports[p] = Endpoint{Owner: owner, Peer: peer}
					ports = append(ports, p)
				}
			case op < 17:
				owner, peer := pick(), pick()
				if r, err := h.GrantAccess(owner, peer, 0, false); err == nil {
					m.grants[r] = Endpoint{Owner: owner, Peer: peer}
					grants = append(grants, r)
				}
			case op < 19 && len(ports) > 0:
				p := ports[rng.Intn(len(ports))]
				_, want := m.ports[p]
				if err := h.ClosePort(p); (err == nil) != want {
					t.Fatalf("seed %d step %d: ClosePort(%d) = %v, model live %v", seed, step, p, err, want)
				}
				delete(m.ports, p)
			case len(grants) > 0:
				r := grants[rng.Intn(len(grants))]
				_, want := m.grants[r]
				if err := h.EndGrant(r); (err == nil) != want {
					t.Fatalf("seed %d step %d: EndGrant(%d) = %v, model live %v", seed, step, r, err, want)
				}
				delete(m.grants, r)
			}
		}
		for _, id := range live {
			if err := h.DestroyDomain(id); err != nil {
				t.Fatal(err)
			}
			m.destroy(id)
			m.check(t, h, -1)
		}
		if destroys == 0 {
			t.Fatalf("seed %d: sequence never destroyed a domain", seed)
		}
	}
}

// TestDestroyRetryReleasesSharedOnce: a destroy that fails partway
// through the shared-region releases must not release the regions it
// already dropped a second time when retried.
func TestDestroyRetryReleasesSharedOnce(t *testing.T) {
	h := newHV()
	g1, _ := h.CreateDomain(Config{MaxMem: 8 * mib})
	g2, _ := h.CreateDomain(Config{MaxMem: 8 * mib})
	for _, id := range []DomID{g1.ID, g2.ID} {
		if err := h.PopulateShared(id, "A", mib); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.PopulateShared(g1.ID, "B", mib); err != nil {
		t.Fatal(err)
	}
	// B disappears from the pool behind g1's back.
	if err := h.Share.Release("B"); err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyDomain(g1.ID); !errors.Is(err, mm.ErrNoShare) {
		t.Fatalf("destroy with a vanished region: %v", err)
	}
	if got := h.Share.Refs("A"); got != 1 {
		t.Fatalf("after failed destroy Refs(A) = %d, want 1", got)
	}
	if err := h.DestroyDomain(g1.ID); err != nil {
		t.Fatalf("retried destroy: %v", err)
	}
	if got := h.Share.Refs("A"); got != 1 {
		t.Fatalf("after retry Refs(A) = %d, want 1 (g2 still maps it)", got)
	}
	if _, err := h.Domain(g1.ID); err == nil {
		t.Fatal("retried destroy left the domain behind")
	}
}

// BenchmarkDestroyDomain replaces one guest (destroy, then create with
// a Dom0 backend port and grant) at a fixed resident count. Teardown
// touches only the guest's own entries, so ns/op should not grow with
// the number of residents.
func BenchmarkDestroyDomain(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("guests=%d", n), func(b *testing.B) {
			h := New(sim.NewClock(), 64*1024*mib)
			add := func() DomID {
				d, err := h.CreateDomain(Config{MaxMem: mib})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.AllocUnboundPort(0, d.ID); err != nil {
					b.Fatal(err)
				}
				if _, err := h.GrantAccess(0, d.ID, 0, false); err != nil {
					b.Fatal(err)
				}
				return d.ID
			}
			ids := make([]DomID, n)
			for i := range ids {
				ids[i] = add()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % n
				if err := h.DestroyDomain(ids[j]); err != nil {
					b.Fatal(err)
				}
				ids[j] = add()
			}
		})
	}
}

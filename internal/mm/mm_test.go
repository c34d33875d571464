package mm

import (
	"testing"
	"testing/quick"
)

func newTest(mb uint64) *Allocator { return New(mb * 1024 * 1024) }

func TestNewSeedsAllMemory(t *testing.T) {
	a := newTest(128)
	if a.TotalPages() != 128*1024*1024/PageSize {
		t.Fatalf("TotalPages = %d", a.TotalPages())
	}
	if a.FreePages() != a.TotalPages() {
		t.Fatalf("fresh allocator not fully free: %d/%d", a.FreePages(), a.TotalPages())
	}
	if err := a.checkInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newTest(64)
	e, err := a.AllocPages(100, 1) // rounds to 128
	if err != nil {
		t.Fatal(err)
	}
	if e.Pages() != 128 {
		t.Fatalf("alloc of 100 pages gave %d", e.Pages())
	}
	if a.OwnerBytes(1) != 128*PageSize {
		t.Fatalf("OwnerBytes = %d", a.OwnerBytes(1))
	}
	if err := a.Free(e); err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != a.TotalPages() {
		t.Fatal("free did not return all pages")
	}
	if a.OwnerBytes(1) != 0 {
		t.Fatal("owner accounting not cleared")
	}
	if err := a.checkInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	a := newTest(16)
	e, err := a.AllocPages(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(e); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(e); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestFreeWrongOrderRejected(t *testing.T) {
	a := newTest(16)
	e, err := a.AllocPages(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := Extent{Base: e.Base, Order: e.Order + 1}
	if err := a.Free(bad); err == nil {
		t.Fatal("free with wrong order accepted")
	}
}

func TestOutOfMemory(t *testing.T) {
	a := newTest(1) // 256 pages
	if _, err := a.AllocPages(512, 1); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	// Exhaust, then fail.
	var exts []Extent
	for {
		e, err := a.AllocPages(64, 2)
		if err != nil {
			break
		}
		exts = append(exts, e)
	}
	if len(exts) != 4 {
		t.Fatalf("expected 4×64-page allocs from 256 pages, got %d", len(exts))
	}
	if _, err := a.AllocPages(1, 3); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory after exhaustion, got %v", err)
	}
}

func TestZeroPagesRejected(t *testing.T) {
	a := newTest(4)
	if _, err := a.AllocPages(0, 1); err == nil {
		t.Fatal("zero-page alloc accepted")
	}
}

func TestCoalescingRestoresLargeBlocks(t *testing.T) {
	a := newTest(4) // 1024 pages
	var exts []Extent
	for i := 0; i < 1024; i++ {
		e, err := a.AllocPages(1, Owner(i))
		if err != nil {
			t.Fatal(err)
		}
		exts = append(exts, e)
	}
	for _, e := range exts {
		if err := a.Free(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.checkInvariant(); err != nil {
		t.Fatal(err)
	}
	// After full coalescing a single 1024-page alloc must succeed.
	if _, err := a.AllocPages(1024, 1); err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
}

func TestAllocBytes(t *testing.T) {
	a := newTest(64)
	exts, err := a.AllocBytes(10*1024*1024, 7) // 10 MiB = 2560 pages
	if err != nil {
		t.Fatal(err)
	}
	var pages uint64
	for _, e := range exts {
		pages += e.Pages()
	}
	if pages != 2560 {
		t.Fatalf("AllocBytes covered %d pages, want exactly 2560", pages)
	}
	if a.OwnerBytes(7) != pages*PageSize {
		t.Fatalf("owner accounting %d != %d", a.OwnerBytes(7), pages*PageSize)
	}
	// The result is sized up front to exactly its extent count.
	for _, size := range []uint64{1, PageSize, 3 * PageSize, 2560 * PageSize, 4<<30 + 5*PageSize} {
		exts, err := newTest(8192).AllocBytes(size, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(exts) != cap(exts) {
			t.Fatalf("AllocBytes(%d): %d extents in a slice of cap %d", size, len(exts), cap(exts))
		}
	}
}

func TestAllocBytesRollbackOnFailure(t *testing.T) {
	a := newTest(1) // 256 pages = 1 MiB
	if _, err := a.AllocBytes(2*1024*1024, 1); err == nil {
		t.Fatal("oversized AllocBytes succeeded")
	}
	if a.FreePages() != a.TotalPages() {
		t.Fatal("failed AllocBytes leaked pages")
	}
	if a.OwnerBytes(1) != 0 {
		t.Fatal("failed AllocBytes left owner accounting")
	}
	if _, ok := a.byOwner[1]; ok {
		t.Fatal("failed AllocBytes left an owner index entry")
	}
}

func TestFreeOwner(t *testing.T) {
	a := newTest(32)
	for i := 0; i < 10; i++ {
		if _, err := a.AllocBytes(1024*1024, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.AllocBytes(1024*1024, 6); err != nil {
		t.Fatal(err)
	}
	freed := a.FreeOwner(5)
	if freed != 10*1024*1024 {
		t.Fatalf("FreeOwner freed %d bytes, want 10 MiB", freed)
	}
	if a.OwnerBytes(5) != 0 {
		t.Fatal("owner 5 still holds memory")
	}
	if a.OwnerBytes(6) == 0 {
		t.Fatal("FreeOwner(5) touched owner 6")
	}
	if err := a.checkInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestOwnersList(t *testing.T) {
	a := newTest(8)
	for _, o := range []Owner{9, 3, 5} {
		if _, err := a.AllocPages(1, o); err != nil {
			t.Fatal(err)
		}
	}
	got := a.Owners()
	want := []Owner{3, 5, 9}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Owners = %v, want %v", got, want)
	}
}

func TestExtentGeometry(t *testing.T) {
	e := Extent{Base: 128, Order: 3}
	if e.Pages() != 8 || e.Bytes() != 8*PageSize {
		t.Fatalf("geometry: pages=%d bytes=%d", e.Pages(), e.Bytes())
	}
}

func TestUsedBytes(t *testing.T) {
	a := newTest(8)
	if a.UsedBytes() != 0 {
		t.Fatal("fresh allocator reports usage")
	}
	e, _ := a.AllocPages(16, 1)
	if a.UsedBytes() != 16*PageSize {
		t.Fatalf("UsedBytes = %d", a.UsedBytes())
	}
	_ = a.Free(e)
	if a.UsedBytes() != 0 {
		t.Fatal("UsedBytes nonzero after free")
	}
}

// Property: any interleaving of allocs and frees keeps the invariant
// and never loses pages.
func TestAllocFreePropertyQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		a := newTest(16) // 4096 pages
		var live []Extent
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 { // alloc-biased
				pages := uint64(op%64) + 1
				e, err := a.AllocPages(pages, Owner(op%8)+1)
				if err == nil {
					live = append(live, e)
				}
			} else {
				i := int(op/3) % len(live)
				if err := a.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := a.checkInvariant(); err != nil {
				return false
			}
		}
		for _, e := range live {
			if err := a.Free(e); err != nil {
				return false
			}
		}
		return a.FreePages() == a.TotalPages() && a.checkInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree8MB(b *testing.B) {
	a := New(4 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := a.AllocPages(2048, 1) // 8 MiB, a unikernel's RAM
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(e); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPressureWithholdsHeadroom: SetPressurePages must make requests
// that would dip into the withheld reserve fail with ErrOutOfMemory,
// leave the buddy structure untouched, and be fully reversible.
func TestPressureWithholdsHeadroom(t *testing.T) {
	a := newTest(4) // 1024 pages
	total := a.TotalPages()
	a.SetPressurePages(total - 64)
	if a.PressurePages() != total-64 {
		t.Fatalf("PressurePages = %d", a.PressurePages())
	}
	if _, err := a.AllocPages(128, 1); err != ErrOutOfMemory {
		t.Fatalf("alloc into the reserve: err = %v, want ErrOutOfMemory", err)
	}
	e, err := a.AllocPages(64, 1)
	if err != nil {
		t.Fatalf("alloc within headroom failed: %v", err)
	}
	if _, err := a.AllocPages(1, 1); err != ErrOutOfMemory {
		t.Fatalf("headroom exhausted but alloc succeeded: err = %v", err)
	}
	a.SetPressurePages(0)
	e2, err := a.AllocPages(128, 1)
	if err != nil {
		t.Fatalf("alloc after release failed: %v", err)
	}
	if err := a.Free(e); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(e2); err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != total {
		t.Fatalf("pressure leaked pages: free %d/%d", a.FreePages(), total)
	}
	if err := a.checkInvariant(); err != nil {
		t.Fatal(err)
	}
	// Clamped to the machine: withholding more than total is total.
	a.SetPressurePages(total * 2)
	if a.PressurePages() != total {
		t.Fatalf("pressure not clamped: %d", a.PressurePages())
	}
	if _, err := a.AllocPages(1, 1); err != ErrOutOfMemory {
		t.Fatalf("full pressure but alloc succeeded: err = %v", err)
	}
	a.SetPressurePages(0)
}

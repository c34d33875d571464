package toolstack

import (
	"fmt"
	"strings"
	"testing"

	"lightvm/internal/guest"
	"lightvm/internal/hv"
)

// fmtKey is the fmt-built form of Flavor.key, the reference for its
// bytes: the key orders the replenish schedule and appears in traces.
func fmtKey(f Flavor) string {
	k := fmt.Sprintf("%s/%d/%v", f.Img.Name, f.Img.MemBytes, f.Store)
	for _, d := range f.Devices {
		k += "/" + d.Kind.String()
	}
	return k
}

func TestFlavorKeyMatchesFmt(t *testing.T) {
	long := guest.Noop()
	long.Name = strings.Repeat("x", 2*keyBufLen) // spills the stack buffer
	kinds := []hv.DevKind{hv.DevVif, hv.DevVbd, hv.DevConsole, hv.DevSysctl}
	for _, img := range []guest.Image{guest.Noop(), guest.Daytime(), guest.DebianMinimal(), long} {
		for _, store := range []bool{true, false} {
			for n := 0; n <= 3; n++ {
				var devs []guest.DeviceSpec
				for i := 0; i < n; i++ {
					devs = append(devs, guest.DeviceSpec{Kind: kinds[(i+n)%len(kinds)], MAC: "00:16:3e:00:00:01"})
				}
				for _, f := range []Flavor{{Img: img, Store: store, Devices: devs}, FlavorFor(img, store)} {
					if got, want := f.key(), fmtKey(f); got != want {
						t.Fatalf("key = %q, want %q", got, want)
					}
				}
			}
		}
	}
}

// A pool hit on a registered flavor allocates nothing: the key is
// built on the stack and the queue is shifted in place.
func TestPoolTakeHitAllocs(t *testing.T) {
	e := newEnv()
	f := FlavorFor(guest.Noop(), false)
	e.Pool.Register(f)
	e.Pool.SetTarget(128)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if e.Pool.Take(f) == nil {
			t.Fatal("pool miss")
		}
	})
	if n != 0 {
		t.Fatalf("warm Take allocates %.1f times per call", n)
	}
	if got := e.Pool.Available(f); got != 128-101 {
		t.Fatalf("Available = %d after 101 takes, want %d", got, 128-101)
	}
}

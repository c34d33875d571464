package migrate

import (
	"testing"

	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

// FuzzUnmarshalCheckpoint feeds arbitrary bytes to the checkpoint wire
// decoder. Whatever it accepts must restore into a fresh host without
// panicking: a corrupt checkpoint may fail, but only with an error.
// Seeded with real xl and noxs checkpoints plus the checked-in corpus
// under testdata/fuzz.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	for _, mode := range []toolstack.Mode{toolstack.ModeXL, toolstack.ModeChaosNoXS} {
		e := newEnv(sim.NewClock())
		vm, _ := createVM(f, e, mode, "seed")
		cp, _, err := Save(e, vm)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := cp.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		_, _, _ = Restore(newEnv(sim.NewClock()), cp)
	})
}

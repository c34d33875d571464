package toolstack

import "testing"

// FuzzParseConfig feeds arbitrary text to the config auto-detector and
// both format parsers behind it. A config it accepts must carry a
// name, a kernel, at least one vCPU and a non-negative memory size, and
// resolving it against the image catalog must give exactly that many
// megabytes or an error. Seeded with the unit tests' configs plus the
// checked-in corpus under testdata/fuzz.
func FuzzParseConfig(f *testing.F) {
	for _, s := range []string{
		xlSample,
		"name fw1\nkernel clickos-fw\nmemory 8\nvif 00:16:3e:00:00:09\n",
		"name y\nkernel daytime\n",
		"   \n# only comments\n",
		"name=\"x\"\nkernel=\"daytime\"\nvif = mac=aa\n",
		"name = \"x\nkernel=\"daytime\"\n",
		"name\n",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := ParseConfig(text)
		if err != nil {
			return
		}
		if cfg.Name == "" || cfg.Kernel == "" || cfg.VCPUs < 1 || cfg.MemoryMB < 0 {
			t.Fatalf("accepted an invalid config %+v from %q", cfg, text)
		}
		img, err := cfg.ResolveImage()
		if err == nil && cfg.MemoryMB > 0 && img.MemBytes>>20 != uint64(cfg.MemoryMB) {
			t.Fatalf("memory %d MB resolved to %d bytes", cfg.MemoryMB, img.MemBytes)
		}
	})
}

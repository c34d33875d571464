package toolstack

import (
	"strings"
	"testing"
)

const xlSample = `
# web frontend
name    = "web1"
kernel  = "/images/daytime"
memory  = 16
vcpus   = 2
vif     = [ 'mac=00:16:3e:00:00:07,bridge=xenbr0' ]
on_crash = "destroy"
`

func TestParseXL(t *testing.T) {
	cfg, err := ParseXL(xlSample)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "web1" || cfg.Kernel != "daytime" {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.MemoryMB != 16 || cfg.VCPUs != 2 {
		t.Fatalf("mem/vcpus = %d/%d", cfg.MemoryMB, cfg.VCPUs)
	}
	if len(cfg.VIFMACs) != 1 || cfg.VIFMACs[0] != "00:16:3e:00:00:07" {
		t.Fatalf("vifs = %v", cfg.VIFMACs)
	}
	if cfg.OnCrash != "destroy" {
		t.Fatalf("on_crash = %q", cfg.OnCrash)
	}
}

func TestParseXLErrors(t *testing.T) {
	cases := map[string]string{
		"no name":     "kernel = \"daytime\"\n",
		"no kernel":   "name = \"x\"\n",
		"bad memory":  "name=\"x\"\nkernel=\"daytime\"\nmemory = lots\n",
		"bad vcpus":   "name=\"x\"\nkernel=\"daytime\"\nvcpus = 0\n",
		"unknown key": "name=\"x\"\nkernel=\"daytime\"\ncolour = \"red\"\n",
		"missing =":   "name \"x\"\n",
		"bad quote":   "name = \"x\nkernel=\"daytime\"\n",
		"bad viflist": "name=\"x\"\nkernel=\"daytime\"\nvif = mac=aa\n",
	}
	for label, text := range cases {
		if _, err := ParseXL(text); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestParseChaos(t *testing.T) {
	cfg, err := ParseChaos("name fw1\nkernel clickos-fw\nmemory 8\nvif 00:16:3e:00:00:09\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "fw1" || cfg.Kernel != "clickos-fw" || cfg.MemoryMB != 8 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if len(cfg.VIFMACs) != 1 {
		t.Fatalf("vifs = %v", cfg.VIFMACs)
	}
}

func TestParseChaosErrors(t *testing.T) {
	for label, text := range map[string]string{
		"no value":    "name\n",
		"unknown key": "name x\nkernel daytime\nflavour big\n",
		"no kernel":   "name x\n",
	} {
		if _, err := ParseChaos(text); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestParseConfigAutodetect(t *testing.T) {
	xl, err := ParseConfig(xlSample)
	if err != nil || xl.Name != "web1" {
		t.Fatalf("xl autodetect: %+v %v", xl, err)
	}
	ch, err := ParseConfig("name y\nkernel daytime\n")
	if err != nil || ch.Name != "y" {
		t.Fatalf("chaos autodetect: %+v %v", ch, err)
	}
	if _, err := ParseConfig("   \n# only comments\n"); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestResolveImage(t *testing.T) {
	cfg, err := ParseXL(xlSample)
	if err != nil {
		t.Fatal(err)
	}
	img, err := cfg.ResolveImage()
	if err != nil {
		t.Fatal(err)
	}
	if img.Name != "daytime" {
		t.Fatalf("image = %q", img.Name)
	}
	if img.MemBytes != 16<<20 {
		t.Fatalf("memory override lost: %d", img.MemBytes)
	}
	if img.Devices[0].MAC != "00:16:3e:00:00:07" {
		t.Fatalf("mac override lost: %q", img.Devices[0].MAC)
	}
	// A size whose byte count overflows is refused, not wrapped: 2^44 MB
	// would otherwise resolve to 0 bytes.
	big := cfg
	big.MemoryMB = 1 << 44
	if img, err := big.ResolveImage(); err == nil {
		t.Fatalf("memory of 2^44 MB resolved to %d bytes", img.MemBytes)
	}
	// Unknown kernel surfaces an error.
	cfg.Kernel = "nonesuch"
	if _, err := cfg.ResolveImage(); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestConfigEndToEnd(t *testing.T) {
	e := newEnv()
	cfg, err := ParseConfig(xlSample)
	if err != nil {
		t.Fatal(err)
	}
	img, err := cfg.ResolveImage()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := e.ForMode(ModeChaosNoXS).Create(cfg.Name, img)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Image.MemBytes != 16<<20 {
		t.Fatal("configured memory not applied")
	}
	if !strings.HasPrefix(vm.Name, "web") {
		t.Fatalf("name = %q", vm.Name)
	}
}

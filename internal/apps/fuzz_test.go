package apps

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParsePrefix feeds arbitrary strings to the firewall's CIDR
// parser. An accepted prefix has a length in [0, 32], no host bits
// set, contains its own address, survives a String round trip, and
// was written in canonical decimal (so the corpus entries leading-plus
// and leading-zeros must be rejected).
// Seeded with the unit tests' inputs plus the checked-in corpus under
// testdata/fuzz.
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{
		"192.168.0.0/16", "192.168.3.7/16", "1.2.3.4", "10.0.0.0/8", "0.0.0.0/0",
		"1.2.3.4/33", "1.2.3.4/-1", "1.2.3.4/x", "bad/8", "1.2.3", "256.0.0.1", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		if p.Bits < 0 || p.Bits > 32 {
			t.Fatalf("%q: prefix length %d", s, p.Bits)
		}
		if p.Addr&^mask(p.Bits) != 0 || !p.Contains(p.Addr) {
			t.Fatalf("%q: host bits set in %+v", s, p)
		}
		back, err := ParsePrefix(p.String())
		if err != nil || back != p {
			t.Fatalf("%q: round trip of %s gave %+v, %v", s, p, back, err)
		}
		// Every accepted field is canonical decimal: no sign, no
		// leading zero, nothing that reads differently elsewhere.
		addrStr, bitsStr, found := strings.Cut(s, "/")
		if found && bitsStr != strconv.Itoa(p.Bits) {
			t.Fatalf("%q: length %q is not canonical for %d", s, bitsStr, p.Bits)
		}
		for _, o := range strings.Split(addrStr, ".") {
			if n, err := strconv.Atoi(o); err != nil || o != strconv.Itoa(n) {
				t.Fatalf("%q: octet %q is not canonical decimal", s, o)
			}
		}
	})
}

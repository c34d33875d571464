package toolstack

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"lightvm/internal/guest"
)

// VMConfig is a parsed guest configuration file — the input the
// toolstack's "configuration parsing" step (Fig. 5's config category)
// consumes. Two on-disk formats are supported: the stock xl format
// (quoted values, bracketed lists) and chaos's minimal line format,
// whose cheapness is part of why ConfigParseChaos ≪ ConfigParse.
type VMConfig struct {
	Name     string
	Kernel   string // catalog image name
	MemoryMB int    // 0 = image default
	VCPUs    int
	VIFMACs  []string
	OnCrash  string
}

// ParseXL parses the classic xl/xm config format:
//
//	# comment
//	name    = "web1"
//	kernel  = "daytime"
//	memory  = 128
//	vcpus   = 1
//	vif     = [ 'mac=00:16:3e:00:00:01,bridge=xenbr0' ]
//	on_crash = "destroy"
func ParseXL(text string) (VMConfig, error) {
	cfg := VMConfig{VCPUs: 1}
	for ln, raw := range strings.Split(text, "\n") {
		line := stripCfgComment(raw)
		if strings.TrimSpace(line) == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return cfg, fmt.Errorf("toolstack: config line %d: missing '='", ln+1)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "name":
			s, err := unquote(val)
			if err != nil {
				return cfg, fmt.Errorf("toolstack: config line %d: %v", ln+1, err)
			}
			cfg.Name = s
		case "kernel":
			s, err := unquote(val)
			if err != nil {
				return cfg, fmt.Errorf("toolstack: config line %d: %v", ln+1, err)
			}
			// xl configs reference a path; we use the basename as the
			// catalog image name.
			if i := strings.LastIndexByte(s, '/'); i >= 0 {
				s = s[i+1:]
			}
			cfg.Kernel = s
		case "memory":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("toolstack: config line %d: bad memory %q", ln+1, val)
			}
			cfg.MemoryMB = n
		case "vcpus":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("toolstack: config line %d: bad vcpus %q", ln+1, val)
			}
			cfg.VCPUs = n
		case "vif":
			macs, err := parseVifList(val)
			if err != nil {
				return cfg, fmt.Errorf("toolstack: config line %d: %v", ln+1, err)
			}
			cfg.VIFMACs = macs
		case "on_crash", "on_poweroff", "on_reboot":
			s, err := unquote(val)
			if err != nil {
				return cfg, fmt.Errorf("toolstack: config line %d: %v", ln+1, err)
			}
			if key == "on_crash" {
				cfg.OnCrash = s
			}
		default:
			return cfg, fmt.Errorf("toolstack: config line %d: unknown key %q", ln+1, key)
		}
	}
	if cfg.Name == "" {
		return cfg, fmt.Errorf("toolstack: config has no name")
	}
	if cfg.Kernel == "" {
		return cfg, fmt.Errorf("toolstack: config has no kernel")
	}
	return cfg, nil
}

// ParseChaos parses chaos's minimal format — one "key value" pair per
// line, no quoting, no lists:
//
//	name web1
//	kernel daytime
//	memory 128
//	vif 00:16:3e:00:00:01
func ParseChaos(text string) (VMConfig, error) {
	cfg := VMConfig{VCPUs: 1}
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(stripCfgComment(raw))
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return cfg, fmt.Errorf("toolstack: chaos config line %d: missing value", ln+1)
		}
		val = strings.TrimSpace(val)
		switch key {
		case "name":
			cfg.Name = val
		case "kernel":
			cfg.Kernel = val
		case "memory":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("toolstack: chaos config line %d: bad memory %q", ln+1, val)
			}
			cfg.MemoryMB = n
		case "vcpus":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("toolstack: chaos config line %d: bad vcpus %q", ln+1, val)
			}
			cfg.VCPUs = n
		case "vif":
			cfg.VIFMACs = append(cfg.VIFMACs, val)
		default:
			return cfg, fmt.Errorf("toolstack: chaos config line %d: unknown key %q", ln+1, key)
		}
	}
	if cfg.Name == "" || cfg.Kernel == "" {
		return cfg, fmt.Errorf("toolstack: chaos config needs name and kernel")
	}
	return cfg, nil
}

// ParseConfig auto-detects the format: '=' assignments mean xl.
func ParseConfig(text string) (VMConfig, error) {
	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(stripCfgComment(raw))
		if line == "" {
			continue
		}
		if strings.ContainsRune(line, '=') {
			return ParseXL(text)
		}
		return ParseChaos(text)
	}
	return VMConfig{}, fmt.Errorf("toolstack: empty config")
}

// ResolveImage maps a parsed config onto a catalog image, applying the
// memory override.
func (cfg VMConfig) ResolveImage() (guest.Image, error) {
	img, err := guest.ByName(cfg.Kernel)
	if err != nil {
		return guest.Image{}, err
	}
	if cfg.MemoryMB > 0 {
		if uint64(cfg.MemoryMB) > math.MaxUint64>>20 {
			return guest.Image{}, fmt.Errorf("toolstack: memory %d MB overflows a byte count", cfg.MemoryMB)
		}
		img.MemBytes = uint64(cfg.MemoryMB) << 20
	}
	for i, mac := range cfg.VIFMACs {
		if i < len(img.Devices) {
			img.Devices[i].MAC = mac
		}
	}
	return img, nil
}

// stripCfgComment removes a trailing # comment outside quotes.
func stripCfgComment(s string) string {
	inQuote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '\'' || c == '"':
			inQuote = c
		case c == '#':
			return s[:i]
		}
	}
	return s
}

// unquote strips matching single or double quotes.
func unquote(s string) (string, error) {
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') {
		if s[len(s)-1] != s[0] {
			return "", fmt.Errorf("unterminated quote in %q", s)
		}
		return s[1 : len(s)-1], nil
	}
	if s == "" {
		return "", fmt.Errorf("empty value")
	}
	return s, nil
}

// parseVifList parses xl's vif = [ 'mac=..,bridge=..', ... ] form,
// returning the MACs.
func parseVifList(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("vif value must be a [ ... ] list")
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil, nil
	}
	var macs []string
	for _, item := range strings.Split(inner, ",") {
		item = strings.TrimSpace(item)
		// Items may themselves contain k=v pairs separated by commas
		// inside the quotes; handle the common 'mac=..' prefix form.
		item = strings.Trim(item, "'\"")
		if item == "" {
			continue
		}
		if strings.HasPrefix(item, "mac=") {
			macs = append(macs, strings.TrimPrefix(item, "mac="))
		}
	}
	return macs, nil
}

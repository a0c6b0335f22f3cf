package mem

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The backend registry. Built-ins register at package init; exotic
// technologies (tests, future plugins) register at their own init time.
// The table is effectively write-once-at-startup, but a mutex keeps
// Register safe for late test registrations under -race.
var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// maxSpecLen bounds ParseSpec inputs; backend and point names are short
// identifiers, so anything longer is hostile input, rejected before any
// lookup work.
const maxSpecLen = 128

// Register adds a backend to the registry. It panics on nil backends,
// invalid names, malformed point lists or duplicate registration —
// registration errors are programmer errors, caught at init.
func Register(b Backend) {
	if b == nil {
		panic("mem: Register(nil)")
	}
	name := b.Name()
	if err := validName(name); err != nil {
		panic(fmt.Sprintf("mem: backend name %q: %v", name, err))
	}
	pts := b.Points()
	if len(pts) == 0 {
		panic(fmt.Sprintf("mem: backend %q has no operating points", name))
	}
	if pts[0].Name != Nominal {
		panic(fmt.Sprintf("mem: backend %q: first point is %q, want %q", name, pts[0].Name, Nominal))
	}
	seen := make(map[string]bool, len(pts))
	for _, p := range pts {
		if err := validName(p.Name); err != nil {
			panic(fmt.Sprintf("mem: backend %q point %q: %v", name, p.Name, err))
		}
		if seen[p.Name] {
			panic(fmt.Sprintf("mem: backend %q: duplicate point %q", name, p.Name))
		}
		seen[p.Name] = true
		if p.AccessPJ < 0 || p.RefreshPJ < 0 || p.WearPJ < 0 || p.RetentionScale < 0 ||
			p.BitErrorRate < 0 || p.BitErrorRate > 1 {
			panic(fmt.Sprintf("mem: backend %q point %q: invalid parameters", name, p.Name))
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("mem: backend %q registered twice", name))
	}
	registry[name] = b
}

// validName enforces the backend/point name grammar: non-empty,
// bounded, lower-case letters, digits, '.' and '-', starting with an
// alphanumeric. The grammar keeps names safe inside cache-key strings,
// memo keys and URL query values without escaping.
func validName(s string) error {
	if s == "" {
		return fmt.Errorf("empty name")
	}
	if len(s) > 64 {
		return fmt.Errorf("name too long (%d bytes)", len(s))
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case (c == '-' || c == '.') && i > 0:
		default:
			return fmt.Errorf("invalid character %q at %d", c, i)
		}
	}
	return nil
}

// Lookup resolves a registered backend by name.
func Lookup(name string) (Backend, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Names lists the registered backends, sorted — the catalog order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Buffers lists the registered buffer-role backends, sorted by name —
// the set the scheduler's backend option ranges over.
func Buffers() []Backend {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Backend, 0, len(registry))
	for _, b := range registry {
		if b.Role() == RoleBuffer {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ParseSpec parses a "backend" or "backend@point" spec onto a
// registered backend and one of its operating points. A bare backend
// name selects its nominal point. The grammar is strict — no
// whitespace, no case folding, no empty components, at most one '@' —
// because specs arrive from CLI flags and untrusted HTTP requests.
func ParseSpec(spec string) (Backend, OperatingPoint, error) {
	if spec == "" {
		return nil, OperatingPoint{}, fmt.Errorf("mem: empty backend spec")
	}
	if len(spec) > maxSpecLen {
		return nil, OperatingPoint{}, fmt.Errorf("mem: backend spec too long (%d bytes)", len(spec))
	}
	name, point := spec, ""
	if i := strings.IndexByte(spec, '@'); i >= 0 {
		name, point = spec[:i], spec[i+1:]
		if point == "" {
			return nil, OperatingPoint{}, fmt.Errorf("mem: spec %q has empty operating point", spec)
		}
		if strings.IndexByte(point, '@') >= 0 {
			return nil, OperatingPoint{}, fmt.Errorf("mem: spec %q has multiple '@'", spec)
		}
	}
	if err := validName(name); err != nil {
		return nil, OperatingPoint{}, fmt.Errorf("mem: backend %q: %v", name, err)
	}
	if point != "" {
		if err := validName(point); err != nil {
			return nil, OperatingPoint{}, fmt.Errorf("mem: operating point %q: %v", point, err)
		}
	}
	b, ok := Lookup(name)
	if !ok {
		return nil, OperatingPoint{}, fmt.Errorf("mem: unknown backend %q (have %s)", name, strings.Join(Names(), ", "))
	}
	p, ok := PointByName(b, point)
	if !ok {
		return nil, OperatingPoint{}, fmt.Errorf("mem: backend %q has no operating point %q", name, point)
	}
	return b, p, nil
}

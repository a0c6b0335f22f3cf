package sched

// The traversal-order and data-mapping search axes.
//
// Traversal (RTC, Refresh Triggered Computation): execution *order* is a
// scheduling decision. A blocked traversal (pattern.Traversal) stages
// the 2nd-level loop so data is consumed before its retention deadline
// instead of refreshed — shrinking lifetimes at the cost of re-staging
// DDR traffic, a trade the Eq. 14 model prices directly.
//
// Mapping (PENDRAM): bank/row data placement is a scheduling decision.
// A MappingPolicy scales the buffer's per-access and per-refresh-word
// energies — an interleaved row mapping spreads hot tiles across rows,
// cutting row-activation cost per access, but scatters live words over
// more rows so each refresh pass sweeps more of the array.
//
// Both axes default to the historical behavior (linear nest, row-major
// placement), and both spec grammars always put the default at axis
// index 0: combined with the search tie-break (earlier axis index wins
// exact ties), enabling an axis can only change a plan when the new
// cell strictly wins — default-axis plans stay byte-identical.

import (
	"fmt"
	"strconv"
	"strings"

	"rana/internal/energy"
	"rana/internal/pattern"
)

// MaxTraversalBlocks bounds the blocked-traversal stage count the spec
// grammar accepts. The 2nd-level loop extents of real layers are at most
// a few thousand; beyond that the per-stage spans collapse to single
// iterations and the axis only duplicates work.
const MaxTraversalBlocks = 64

// DefaultTraversalName is the canonical spelling of the default
// traversal axis value (the unmodified Fig. 10 nest).
const DefaultTraversalName = "linear"

// DefaultMappingName is the canonical spelling of the default data
// mapping (contiguous row-major placement — the historical behavior).
const DefaultMappingName = "row-major"

// rtcLadder is what the "rtc" traversal alias expands to: a small
// geometric ladder of stage counts, enough for the search to find the
// deadline-crossing block size without pricing every count.
var rtcLadder = []pattern.Traversal{{Blocks: 2}, {Blocks: 4}, {Blocks: 8}}

// MappingPolicy is one bank/row data-mapping policy: a named pair of
// energy scale factors applied to the buffer's operating-point table.
// AccessScale multiplies the per-access energy (row-activation cost per
// buffer access under this placement); RefreshScale multiplies the
// per-word refresh energy (how many rows a refresh pass must sweep per
// live word). The scales only reshape *buffer* pricing — MAC and DDR
// energies are placement-independent.
type MappingPolicy struct {
	Name         string
	AccessScale  float64
	RefreshScale float64
}

// Apply derives the operating-point energy table under this mapping.
// The identity policy returns the table untouched — no float multiply —
// so row-major pricing is bit-identical to the unmapped path.
func (m MappingPolicy) Apply(t energy.Table) energy.Table {
	if m.AccessScale == 1 && m.RefreshScale == 1 {
		return t
	}
	t.AccessPJ *= m.AccessScale
	t.RefreshPJ *= m.RefreshScale
	return t
}

// IsDefault reports whether the policy is the row-major identity.
func (m MappingPolicy) IsDefault() bool { return m.Name == DefaultMappingName }

// The registered mapping policies. RowMajorMapping is the identity —
// contiguous placement, the cost model every energy constant was
// calibrated against. InterleaveMapping is the PENDRAM-style
// row-interleaved placement: consecutive tiles land in different
// rows/banks, so streaming accesses reopen rows less often (7% cheaper
// per access) while live data spreads across 12% more refresh-swept
// rows.
var (
	RowMajorMapping   = MappingPolicy{Name: DefaultMappingName, AccessScale: 1, RefreshScale: 1}
	InterleaveMapping = MappingPolicy{Name: "interleave", AccessScale: 0.93, RefreshScale: 1.12}
)

// mappingPolicies lists every registered policy, default first.
var mappingPolicies = []MappingPolicy{RowMajorMapping, InterleaveMapping}

// MappingPolicies returns the registered policies in canonical order
// (default first) — the serving catalog's mapping rows.
func MappingPolicies() []MappingPolicy {
	out := make([]MappingPolicy, len(mappingPolicies))
	copy(out, mappingPolicies)
	return out
}

// MappingByName resolves a policy by canonical name; the empty name is
// the default policy. External checkers (verify.CheckPlan) use it to
// re-derive a plan's mapping-scaled pricing table.
func MappingByName(name string) (MappingPolicy, bool) {
	if name == "" {
		return RowMajorMapping, true
	}
	for _, m := range mappingPolicies {
		if m.Name == name {
			return m, true
		}
	}
	return MappingPolicy{}, false
}

// ParseTraversalSpec parses a traversal-axis spec into the traversal
// values the search explores, always with the linear default at index 0.
//
// Grammar (comma-separated, duplicates collapse):
//
//	spec  ::= "" | item ("," item)*
//	item  ::= "linear" | "rtc" | "blocked" N      (2 ≤ N ≤ 64)
//
// "" and "linear" select the default-only axis (legacy behavior);
// "blockedN" adds one RTC stage count next to linear; "rtc" expands to
// the blocked ladder {2, 4, 8}.
func ParseTraversalSpec(spec string) ([]pattern.Traversal, error) {
	axis := []pattern.Traversal{pattern.Linear}
	if spec == "" {
		return axis, nil
	}
	seen := map[pattern.Traversal]bool{pattern.Linear: true}
	add := func(tr pattern.Traversal) {
		if !seen[tr] {
			seen[tr] = true
			axis = append(axis, tr)
		}
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		switch {
		case item == DefaultTraversalName:
			// Always present at index 0.
		case item == "rtc":
			for _, tr := range rtcLadder {
				add(tr)
			}
		case strings.HasPrefix(item, "blocked"):
			n, err := strconv.Atoi(item[len("blocked"):])
			if err != nil || n < 2 || n > MaxTraversalBlocks {
				return nil, fmt.Errorf("sched: traversal %q: blocked stage count must be an integer in [2, %d]", item, MaxTraversalBlocks)
			}
			add(pattern.Traversal{Blocks: n})
		default:
			return nil, fmt.Errorf("sched: unknown traversal %q (want %q, \"rtc\" or \"blocked<n>\")", item, DefaultTraversalName)
		}
	}
	return axis, nil
}

// ParseMappingSpec parses a mapping-axis spec into the policies the
// search explores, always with the row-major default at index 0.
//
// Grammar (comma-separated, duplicates collapse):
//
//	spec ::= "" | item ("," item)*
//	item ::= "row-major" | "interleave" | "all"
//
// "" and "row-major" select the default-only axis; "all" expands to
// every registered policy.
func ParseMappingSpec(spec string) ([]MappingPolicy, error) {
	axis := []MappingPolicy{RowMajorMapping}
	if spec == "" {
		return axis, nil
	}
	seen := map[string]bool{DefaultMappingName: true}
	add := func(m MappingPolicy) {
		if !seen[m.Name] {
			seen[m.Name] = true
			axis = append(axis, m)
		}
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "all" {
			for _, m := range mappingPolicies {
				add(m)
			}
			continue
		}
		m, ok := MappingByName(item)
		if !ok || item == "" {
			return nil, fmt.Errorf("sched: unknown mapping policy %q (want %q, \"interleave\" or \"all\")", item, DefaultMappingName)
		}
		add(m)
	}
	return axis, nil
}

// CanonicalTraversalSpec reduces a traversal spec to its canonical
// spelling: the parsed axis minus the implicit leading default, comma-
// joined — the empty string when the axis is default-only. Equivalent
// spellings ("", "linear", "linear,linear") collapse onto one form, so
// cache keys and memo keys stay byte-identical for legacy requests.
func CanonicalTraversalSpec(spec string) (string, error) {
	axis, err := ParseTraversalSpec(spec)
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, len(axis)-1)
	for _, tr := range axis[1:] {
		parts = append(parts, tr.String())
	}
	return strings.Join(parts, ","), nil
}

// CanonicalMappingSpec is CanonicalTraversalSpec for the mapping axis.
func CanonicalMappingSpec(spec string) (string, error) {
	axis, err := ParseMappingSpec(spec)
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, len(axis)-1)
	for _, m := range axis[1:] {
		parts = append(parts, m.Name)
	}
	return strings.Join(parts, ","), nil
}

// traversalName is the per-layer plan spelling of a chosen traversal:
// empty for the default (so legacy plans encode byte-identically),
// canonical otherwise. The exact evaluator names every cell it prices,
// so the spellings the spec grammar admits are formatted once, up
// front, instead of once per priced candidate.
func traversalName(tr pattern.Traversal) string {
	if tr.IsLinear() {
		return ""
	}
	if tr.Blocks <= MaxTraversalBlocks {
		return blockedNames[tr.Blocks]
	}
	return tr.String()
}

// blockedNames[b] is the canonical spelling of the b-stage blocked
// traversal, for every stage count the spec grammar admits.
var blockedNames = func() (names [MaxTraversalBlocks + 1]string) {
	for b := 2; b <= MaxTraversalBlocks; b++ {
		names[b] = pattern.Traversal{Blocks: b}.String()
	}
	return names
}()

// mappingName is traversalName for mapping policies.
func mappingName(m MappingPolicy) string {
	if m.IsDefault() {
		return ""
	}
	return m.Name
}

// appendMappingTables appends the per-(mapping, point) pricing tables to
// dst (typically a reused scratch slice), index-aligned with the search
// cell as tables[map*len(points)+point]. The bound and the exact
// evaluator price through the same derived table, which is what keeps
// the admissibility argument intact per cell.
func appendMappingTables(dst []energy.Table, points []energy.Table, maps []MappingPolicy) []energy.Table {
	for _, m := range maps {
		for _, t := range points {
			dst = append(dst, m.Apply(t))
		}
	}
	return dst
}

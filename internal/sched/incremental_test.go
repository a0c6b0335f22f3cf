package sched

// The incremental-pricing equality test: a pricingCtx must return
// *bit-identical* values to the stateless (*bound).lower at every cell,
// in any call order — the property that makes incremental pricing
// invisible to pruning decisions, plans and work accounting. The test
// streams the full candidate space of representative layers in the
// canonical enumeration order (maximizing cache reuse), in a seeded
// random order (maximizing cache invalidation churn), with and without
// a PrefixMemo in the loop, comparing raw float bits throughout.

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

type priceCase struct {
	k    pattern.Kind
	t    pattern.Tiling
	cell search.Cell
}

// enumerateCases builds the layer's candidate cells in the canonical
// scan order: tiling-major, then kind, operating point, traversal,
// mapping — the order incremental caching was designed around.
func enumerateCases(e models.ConvLayer, cfg hw.Config, kinds []pattern.Kind, points, travs, maps int) []priceCase {
	var out []priceCase
	for _, t := range candidateTilings(e, cfg, Options{}) {
		for _, k := range kinds {
			for pi := 0; pi < points; pi++ {
				for tv := 0; tv < travs; tv++ {
					for mi := 0; mi < maps; mi++ {
						out = append(out, priceCase{k: k, t: t, cell: search.Cell{Point: pi, Trav: tv, Map: mi}})
					}
				}
			}
		}
	}
	return out
}

func TestIncrementalBoundBitIdentical(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	travs, err := ParseTraversalSpec("rtc")
	if err != nil {
		t.Fatal(err)
	}
	maps, err := ParseMappingSpec("all")
	if err != nil {
		t.Fatal(err)
	}
	// Two synthetic operating points so the point axis actually selects
	// different pricing tables.
	base := cfg.BufferTech.Table()
	low := base
	low.AccessPJ *= 0.8
	low.RefreshPJ *= 1.3
	tables := appendMappingTables(nil, []energy.Table{base, low}, maps)
	// The three known kinds plus an unknown one: both evaluators must
	// bound unknown kinds to zero (never pruned).
	kinds := []pattern.Kind{pattern.ID, pattern.OD, pattern.WD, pattern.Kind(97)}

	rng := rand.New(rand.NewSource(1))
	for _, net := range models.Benchmarks() {
		layers := net.Layers
		if len(layers) > 3 {
			layers = []models.ConvLayer{layers[0], layers[len(layers)/2], layers[len(layers)-1]}
		}
		for _, l := range layers {
			b := newBound(l, cfg, tables, 2, travs)
			cases := enumerateCases(effectiveLayer(l), cfg, kinds, 2, len(travs), len(maps))
			order := make([]int, len(cases))
			for i := range order {
				order[i] = i
			}
			runs := []struct {
				name    string
				shuffle bool
				prefix  *PrefixMemo
			}{
				{"canonical", false, nil},
				{"canonical-prefixmemo", false, NewPrefixMemo(0)},
				{"shuffled", true, nil},
				{"shuffled-prefixmemo", true, NewPrefixMemo(0)},
			}
			for _, run := range runs {
				if run.shuffle {
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				var pc pricingCtx
				pc.reset(b, run.prefix)
				for _, idx := range order {
					c := cases[idx]
					got := pc.Lower(c.k, c.t, c.cell)
					want := b.lower(c.k, c.t, c.cell)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s %s: kind %v tiling %+v cell %+v: incremental %v (bits %x) != stateless %v (bits %x)",
							net.Name, l.Name, run.name, c.k, c.t, c.cell,
							got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestPrefixMemoStats pins the prefix memo's accounting: lookups for a
// repeated (kind, Tm, Tn, shape) prefix hit after the first compute, and
// a saturated memo keeps computing correct values without recording.
func TestPrefixMemoStats(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	l, ok := models.VGG().Layer("conv4_2")
	if !ok {
		t.Fatal("missing layer")
	}
	b := newBound(l, cfg, []energy.Table{cfg.BufferTech.Table()}, 1, nil)

	p := NewPrefixMemo(0)
	first := p.lookup(b, pattern.OD, 16, 16)
	again := p.lookup(b, pattern.OD, 16, 16)
	if first != again {
		t.Fatalf("prefix sums changed between lookups: %+v != %+v", first, again)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after repeat lookup = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if got, want := first, b.prefixSums(pattern.OD, 16, 16); got != want {
		t.Fatalf("memoized sums %+v != direct %+v", got, want)
	}

	// Saturation: a capacity-1 memo records the first prefix only, yet
	// keeps returning correct values for everything else.
	tiny := NewPrefixMemo(1)
	tiny.lookup(b, pattern.OD, 16, 16)
	got := tiny.lookup(b, pattern.ID, 32, 8)
	if want := b.prefixSums(pattern.ID, 32, 8); got != want {
		t.Fatalf("saturated lookup %+v != direct %+v", got, want)
	}
	if st := tiny.Stats(); st.Entries != 1 {
		t.Fatalf("saturated memo has %d entries, want 1", st.Entries)
	}
	// The unrecorded prefix misses again on repeat.
	tiny.lookup(b, pattern.ID, 32, 8)
	if st := tiny.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("saturated stats = %+v, want 3 misses / 0 hits", st)
	}
}

// TestDefaultCompileUsesNoPrefixMemo: with Options.Prefix nil, a compile
// computes its bound prefix sums in each pricing context and looks
// nothing up in any prefix memo.
func TestDefaultCompileUsesNoPrefixMemo(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		_, ns, err := ExploreNetworkContext(context.Background(), net, cfg, ranaOpts())
		if err != nil {
			t.Fatal(err)
		}
		if n := ns.PrefixHits + ns.PrefixMisses; n != 0 {
			t.Errorf("%s: default compile made %d prefix-memo lookups, want 0", net.Name, n)
		}
	}
}

// TestSharedPrefixMemoKeepsPlanBytes: compiles that read their prefix
// sums through one shared PrefixMemo, warm from the networks before
// them, encode the same plan bytes as compiles that compute the sums.
func TestSharedPrefixMemoKeepsPlanBytes(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	shared := ranaOpts()
	shared.Prefix = NewPrefixMemo(0)
	for _, net := range models.Benchmarks() {
		ref, _, err := ExploreNetworkContext(ctx, net, cfg, ranaOpts())
		if err != nil {
			t.Fatal(err)
		}
		got, ns, err := ExploreNetworkContext(ctx, net, cfg, shared)
		if err != nil {
			t.Fatal(err)
		}
		if ns.PrefixHits+ns.PrefixMisses == 0 {
			t.Errorf("%s: compile never read the shared prefix memo", net.Name)
		}
		refJSON, err := json.Marshal(Encode(ref))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(Encode(got))
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(refJSON) {
			t.Errorf("%s: shared-prefix-memo plan differs from the default plan", net.Name)
		}
	}
}

package sched

import (
	"context"
	"encoding/json"
	"testing"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
)

// TestPrefixMemoStats pins the prefix memo's accounting: lookups for a
// repeated (kind, Tm, Tn, shape) prefix hit after the first compute, and
// a saturated memo keeps computing correct values without recording.
func TestPrefixMemoStats(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	l, ok := models.VGG().Layer("conv4_2")
	if !ok {
		t.Fatal("missing layer")
	}
	b := new(bound)
	b.init(l, cfg, []pattern.Kind{pattern.OD}, []energy.Table{cfg.BufferTech.Table()}, 1, nil, nil)

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
// computes its bound prefix sums in each exploring goroutine's bound and
// looks nothing up in any prefix memo.
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

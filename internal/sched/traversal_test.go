package sched

import (
	"encoding/json"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched/search"
)

func TestParseTraversalSpec(t *testing.T) {
	b := func(ns ...int) []pattern.Traversal {
		out := []pattern.Traversal{pattern.Linear}
		for _, n := range ns {
			out = append(out, pattern.Traversal{Blocks: n})
		}
		return out
	}
	accept := []struct {
		spec string
		want []pattern.Traversal
	}{
		{"", b()},
		{"linear", b()},
		{"linear,linear", b()},
		{"blocked2", b(2)},
		{"blocked2,blocked2", b(2)},
		{"rtc", b(2, 4, 8)},
		{"rtc,blocked4", b(2, 4, 8)},
		{"blocked3,rtc", b(3, 2, 4, 8)},
		{" blocked2 , linear ", b(2)},
		{"blocked64", b(64)},
	}
	for _, c := range accept {
		got, err := ParseTraversalSpec(c.spec)
		if err != nil {
			t.Errorf("ParseTraversalSpec(%q): %v", c.spec, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseTraversalSpec(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseTraversalSpec(%q)[%d] = %v, want %v", c.spec, i, got[i], c.want[i])
			}
		}
	}
	for _, spec := range []string{
		"blocked1", "blocked0", "blocked-2", "blocked65", "blocked", "blockedx",
		"foo", "LINEAR", "RTC", "linear,,rtc", ",", "blocked2.5",
	} {
		if _, err := ParseTraversalSpec(spec); err == nil {
			t.Errorf("ParseTraversalSpec(%q) accepted, want error", spec)
		}
	}
}

func TestParseMappingSpec(t *testing.T) {
	names := func(ms []MappingPolicy) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		return out
	}
	accept := []struct {
		spec string
		want []string
	}{
		{"", []string{"row-major"}},
		{"row-major", []string{"row-major"}},
		{"interleave", []string{"row-major", "interleave"}},
		{"interleave,interleave", []string{"row-major", "interleave"}},
		{"all", []string{"row-major", "interleave"}},
		{" all , row-major ", []string{"row-major", "interleave"}},
	}
	for _, c := range accept {
		got, err := ParseMappingSpec(c.spec)
		if err != nil {
			t.Errorf("ParseMappingSpec(%q): %v", c.spec, err)
			continue
		}
		gn := names(got)
		if len(gn) != len(c.want) {
			t.Errorf("ParseMappingSpec(%q) = %v, want %v", c.spec, gn, c.want)
			continue
		}
		for i := range gn {
			if gn[i] != c.want[i] {
				t.Errorf("ParseMappingSpec(%q)[%d] = %q, want %q", c.spec, i, gn[i], c.want[i])
			}
		}
	}
	for _, spec := range []string{"foo", "ALL", "row_major", "interleave,,", ","} {
		if _, err := ParseMappingSpec(spec); err == nil {
			t.Errorf("ParseMappingSpec(%q) accepted, want error", spec)
		}
	}
}

// TestCanonicalSpecs pins the cache-key discipline: every spelling of
// the default-only axis canonicalizes to "", and equivalent non-default
// spellings collapse onto one form that re-canonicalizes to itself.
func TestCanonicalSpecs(t *testing.T) {
	trav := []struct{ spec, want string }{
		{"", ""},
		{"linear", ""},
		{"linear,linear", ""},
		{"rtc", "blocked2,blocked4,blocked8"},
		{"blocked4,rtc", "blocked4,blocked2,blocked8"},
		{"blocked2,linear,blocked2", "blocked2"},
	}
	for _, c := range trav {
		got, err := CanonicalTraversalSpec(c.spec)
		if err != nil {
			t.Fatalf("CanonicalTraversalSpec(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Errorf("CanonicalTraversalSpec(%q) = %q, want %q", c.spec, got, c.want)
		}
		again, err := CanonicalTraversalSpec(got)
		if err != nil || again != got {
			t.Errorf("canonical traversal %q not a fixed point: %q, %v", got, again, err)
		}
	}
	mapc := []struct{ spec, want string }{
		{"", ""},
		{"row-major", ""},
		{"all", "interleave"},
		{"interleave", "interleave"},
		{"interleave,all", "interleave"},
	}
	for _, c := range mapc {
		got, err := CanonicalMappingSpec(c.spec)
		if err != nil {
			t.Fatalf("CanonicalMappingSpec(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Errorf("CanonicalMappingSpec(%q) = %q, want %q", c.spec, got, c.want)
		}
		again, err := CanonicalMappingSpec(got)
		if err != nil || again != got {
			t.Errorf("canonical mapping %q not a fixed point: %q, %v", got, again, err)
		}
	}
}

// TestSignatureAxes pins the memo frame's discipline around the axes:
// default spellings leave the frame digest unchanged, and equivalent
// spellings share one.
func TestSignatureAxes(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	legacy := frameDigest(cfg, ranaOpts())
	spelled := ranaOpts()
	spelled.Traversal, spelled.Mapping = "linear", "row-major"
	if got := frameDigest(cfg, spelled); got != legacy {
		t.Errorf("spelled-default frame %x != legacy %x", got, legacy)
	}
	rtc := ranaOpts()
	rtc.Traversal, rtc.Mapping = "rtc", "all"
	ladder := ranaOpts()
	ladder.Traversal, ladder.Mapping = "blocked2,blocked4,blocked8", "interleave"
	if frameDigest(cfg, rtc) != frameDigest(cfg, ladder) {
		t.Errorf("equivalent axis spellings diverge:\n%x\n%x", frameDigest(cfg, rtc), frameDigest(cfg, ladder))
	}
	if frameDigest(cfg, rtc) == legacy {
		t.Error("non-default axes did not change the frame")
	}
	// The refresh interval is not part of the key: one frontier serves
	// every interval at or above the one it was built at. Everything
	// else that prices refresh still splits it.
	retimed := ranaOpts()
	retimed.RefreshInterval = 45 * time.Microsecond
	if got := frameDigest(cfg, retimed); got != legacy {
		t.Errorf("options differing only in the refresh interval diverge:\n%x\n%x", got, legacy)
	}
	for name, tune := range map[string]func(*Options){
		"controller": func(o *Options) { o.Controller = memctrl.RefreshOptimized{} },
		"guard":      func(o *Options) { o.RetentionGuard = 0.5 },
		"backend":    func(o *Options) { o.Backend = "approx-dram" },
		"point":      func(o *Options) { o.Backend, o.OperatingPoint = "approx-dram", "v0.8" },
		"axes":       func(o *Options) { o.Traversal = "rtc" },
	} {
		o := ranaOpts()
		tune(&o)
		if frameDigest(cfg, o) == legacy {
			t.Errorf("%s missing from the memo frame", name)
		}
	}
}

// TestDefaultAxisPlansByteIdentical is the acceptance bar for the axis
// refactor: leaving the axes at their defaults — by omission or by
// explicit spelling — must reproduce the legacy plan byte for byte.
func TestDefaultAxisPlansByteIdentical(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.AlexNet()
	base, err := Schedule(net, cfg, ranaOpts())
	if err != nil {
		t.Fatal(err)
	}
	spelled := ranaOpts()
	spelled.Traversal, spelled.Mapping = "linear", "row-major"
	sp, err := Schedule(net, cfg, spelled)
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(Encode(base))
	sj, _ := json.Marshal(Encode(sp))
	if string(bj) != string(sj) {
		t.Fatalf("spelled-default plan diverged:\n%.200s\nvs\n%.200s", bj, sj)
	}
}

// axesOpts is the enlarged-space frame the axis tests run under: the
// conventional 45µs refresh interval, where refresh is expensive enough
// that consume-before-deadline reordering actually wins cells.
func axesOpts() Options {
	o := ranaOpts()
	o.RefreshInterval = retention.TypicalRetentionTime
	o.Traversal = "rtc"
	o.Mapping = "all"
	return o
}

// TestAxesPrunedMatchesExhaustive checks branch-and-bound soundness on
// the enlarged space: with both axes open, the pruned search reproduces
// the exhaustive optimum byte for byte and the beam never reports less
// energy than it.
func TestAxesPrunedMatchesExhaustive(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.AlexNet()
	ex := axesOpts()
	ex.Search = search.Exhaustive
	pr := axesOpts()
	pr.Search = search.Pruned
	exPlan, err := Schedule(net, cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	prPlan, err := Schedule(net, cfg, pr)
	if err != nil {
		t.Fatal(err)
	}
	ej, _ := json.Marshal(Encode(exPlan))
	pj, _ := json.Marshal(Encode(prPlan))
	if string(ej) != string(pj) {
		t.Fatalf("pruned diverged from exhaustive on the enlarged space:\n%.200s\nvs\n%.200s", ej, pj)
	}
	bm := axesOpts()
	bm.Search = search.Beam
	bmPlan, err := Schedule(net, cfg, bm)
	if err != nil {
		t.Fatal(err)
	}
	if bmPlan.Energy.Total() < exPlan.Energy.Total() {
		t.Fatalf("beam energy %g beats exhaustive optimum %g", bmPlan.Energy.Total(), exPlan.Energy.Total())
	}
}

// TestConventionalRetentionBlockedWins pins the RTC win condition: at
// the conventional 45µs interval the enlarged space must strictly beat
// the default-only optimum, and at least one layer must choose a
// blocked traversal (at RANA's extended 734µs interval refresh is cheap
// enough that linear wins everywhere — that contrast is the point).
func TestConventionalRetentionBlockedWins(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.AlexNet()
	base := ranaOpts()
	base.RefreshInterval = retention.TypicalRetentionTime
	basePlan, err := Schedule(net, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	axesPlan, err := Schedule(net, cfg, axesOpts())
	if err != nil {
		t.Fatal(err)
	}
	if axesPlan.Energy.Total() >= basePlan.Energy.Total() {
		t.Fatalf("axes-enabled energy %g did not beat default-only %g at %v",
			axesPlan.Energy.Total(), basePlan.Energy.Total(), retention.TypicalRetentionTime)
	}
	blocked := 0
	for _, lp := range axesPlan.Layers {
		if lp.Traversal != "" {
			blocked++
			if lp.Analysis.Traversal.IsLinear() {
				t.Errorf("layer %s plan says %q but analysis ran linear", lp.Analysis.Layer.Name, lp.Traversal)
			}
		}
	}
	if blocked == 0 {
		t.Fatal("no layer chose a blocked traversal at the conventional interval")
	}
}

// TestMemoNearDuplicateShapesStayDistinct pins the memo-key coarsening
// boundary (see memoKey): padding spellings with identical derived
// output geometry share an entry, but near-duplicate shapes differing
// only in M — GoogLeNet's inception branches — must stay distinct,
// because M reaches the plan through the Tm axis and the volumes.
func TestMemoNearDuplicateShapesStayDistinct(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := ranaOpts()
	base := models.ConvLayer{Name: "a", N: 48, H: 11, L: 11, M: 96, K: 3, S: 4, P: 0}

	// Same derived R()/C() under a different padding spelling: H=11, K=3,
	// S=4 gives (8)/4+1 = 3 at P=0 and (10)/4+1 = 3 at P=1.
	padded := base
	padded.Name, padded.P = "b", 1
	if base.R() != padded.R() || base.C() != padded.C() {
		t.Fatalf("test premise broken: derived geometry differs (%d,%d) vs (%d,%d)",
			base.R(), base.C(), padded.R(), padded.C())
	}
	if testKey(base, cfg, opts) != testKey(padded, cfg, opts) {
		t.Error("padding spellings with identical derived geometry got distinct memo keys")
	}

	wider := base
	wider.Name, wider.M = "c", 100
	if testKey(base, cfg, opts) == testKey(wider, cfg, opts) {
		t.Error("layers differing only in M share a memo key; M reaches the plan through Tm and the volumes")
	}

	// Behavioral check: compiling the near-duplicate pair through the
	// memo must not smear one layer's plan onto the other.
	net := models.Network{Name: "near-dup", Layers: []models.ConvLayer{base, wider}}
	memoized, err := Schedule(net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain := opts
	plain.DisableMemo = true
	unmemoized, err := Schedule(net, cfg, plain)
	if err != nil {
		t.Fatal(err)
	}
	mj, _ := json.Marshal(Encode(memoized))
	uj, _ := json.Marshal(Encode(unmemoized))
	if string(mj) != string(uj) {
		t.Fatalf("memoized near-duplicate plan diverged:\n%.200s\nvs\n%.200s", mj, uj)
	}
}

// TestMappingApplyIdentity pins the bit-identical default-pricing
// contract: the row-major policy must return the table untouched (no
// float multiply), and a non-default policy must scale exactly the
// buffer components.
func TestMappingApplyIdentity(t *testing.T) {
	tb := hw.TestAcceleratorEDRAM().BufferTech.Table()
	if got := RowMajorMapping.Apply(tb); got != tb {
		t.Errorf("row-major Apply changed the table: %+v vs %+v", got, tb)
	}
	got := InterleaveMapping.Apply(tb)
	if got.AccessPJ != tb.AccessPJ*InterleaveMapping.AccessScale {
		t.Errorf("interleave AccessPJ = %g, want %g", got.AccessPJ, tb.AccessPJ*InterleaveMapping.AccessScale)
	}
	if got.RefreshPJ != tb.RefreshPJ*InterleaveMapping.RefreshScale {
		t.Errorf("interleave RefreshPJ = %g, want %g", got.RefreshPJ, tb.RefreshPJ*InterleaveMapping.RefreshScale)
	}
	if got.WearPJ != tb.WearPJ {
		t.Errorf("interleave touched the placement-independent wear term: %+v vs %+v", got, tb)
	}
}

// TestTraversalNameSpellings: the preformatted plan spellings equal
// Traversal.String for every stage count, inside the grammar's range
// and past it.
func TestTraversalNameSpellings(t *testing.T) {
	if got := traversalName(pattern.Linear); got != "" {
		t.Fatalf("linear spells %q, want empty", got)
	}
	for b := 2; b <= MaxTraversalBlocks+2; b++ {
		tr := pattern.Traversal{Blocks: b}
		if got, want := traversalName(tr), tr.String(); got != want {
			t.Fatalf("blocks=%d spells %q, want %q", b, got, want)
		}
	}
}

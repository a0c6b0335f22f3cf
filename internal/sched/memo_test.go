package sched

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched/search"
)

// TestMemoOnOffPlansIdentical is the satellite equality check: compiling
// with the in-compile shape dedup enabled must produce wire bytes
// identical to compiling with it disabled, on every zoo network, while
// actually hitting on the shape-heavy models.
func TestMemoOnOffPlansIdentical(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		t.Run(net.Name, func(t *testing.T) {
			off := ranaOpts()
			off.DisableMemo = true
			on := ranaOpts()

			ctx := context.Background()
			pOff, sOff, err := ExploreNetworkContext(ctx, net, cfg, off)
			if err != nil {
				t.Fatal(err)
			}
			pOn, sOn, err := ExploreNetworkContext(ctx, net, cfg, on)
			if err != nil {
				t.Fatal(err)
			}
			offJSON, err := json.Marshal(Encode(pOff))
			if err != nil {
				t.Fatal(err)
			}
			onJSON, err := json.Marshal(Encode(pOn))
			if err != nil {
				t.Fatal(err)
			}
			if string(offJSON) != string(onJSON) {
				t.Fatalf("memoized plan diverged from un-memoized plan:\n%.160s\nvs\n%.160s", onJSON, offJSON)
			}
			if sOff.MemoHits != 0 || sOff.MemoMisses != 0 {
				t.Fatalf("DisableMemo still counted memo traffic: %+v", sOff)
			}
			if sOn.MemoHits+sOn.MemoMisses != len(net.Layers) {
				t.Fatalf("memo accounting %d hits + %d misses != %d layers", sOn.MemoHits, sOn.MemoMisses, len(net.Layers))
			}
			if net.Name == "ResNet" && sOn.MemoHits == 0 {
				t.Fatal("ResNet repeats shapes but the memo never hit")
			}
		})
	}
}

// TestMemoSharedAcrossCompiles: an explicit Memo carries results from one
// compile into the next — the second compile of the same network is all
// hits, with identical plan bytes.
func TestMemoSharedAcrossCompiles(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.ResNet()
	opts := ranaOpts()
	opts.Memo = NewMemo(0)

	ctx := context.Background()
	p1, s1, err := ExploreNetworkContext(ctx, net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, s2, err := ExploreNetworkContext(ctx, net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.MemoHits != len(net.Layers) || s2.MemoMisses != 0 {
		t.Fatalf("second compile: %d hits, %d misses, want all %d layers hit", s2.MemoHits, s2.MemoMisses, len(net.Layers))
	}
	if s1.MemoMisses == 0 {
		t.Fatalf("first compile reported no misses: %+v", s1)
	}
	j1, _ := json.Marshal(Encode(p1))
	j2, _ := json.Marshal(Encode(p2))
	if string(j1) != string(j2) {
		t.Fatal("shared-memo recompile changed plan bytes")
	}
	ms := opts.Memo.Stats()
	if ms.Hits == 0 || ms.Misses == 0 || ms.Entries == 0 {
		t.Fatalf("memo stats %+v missing traffic", ms)
	}
}

// testKey is the memo key the compile path builds for one layer.
func testKey(l models.ConvLayer, cfg hw.Config, opts Options) memoKey {
	frame := frameDigest(cfg, opts)
	return layerKey(&frame, &l, &opts)
}

// exploreMemo drives one layer through the memo exactly as the compile
// path does: prebuilt key, resolved environment, exploreEnv.
func exploreMemo(t *testing.T, m *Memo, l models.ConvLayer, cfg hw.Config, opts Options) (LayerPlan, bool, error) {
	t.Helper()
	env, err := envFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	lp, _, hit, err := m.exploreEnv(testKey(l, cfg, opts), l, cfg, opts, env)
	return lp, hit, err
}

// memoFixture returns a layer/config/options triple for direct explore
// calls.
func memoFixture(t *testing.T) (models.ConvLayer, hw.Config, Options) {
	t.Helper()
	l, ok := models.AlexNet().Layer("conv3")
	if !ok {
		t.Fatal("missing fixture layer")
	}
	return l, hw.TestAcceleratorEDRAM(), ranaOpts()
}

// TestMemoDedupsConcurrentExplores: same-shaped layers racing through one
// memo explore exactly once — one owned miss, every other caller a
// hit — and every caller gets a plan carrying its own layer identity.
func TestMemoDedupsConcurrentExplores(t *testing.T) {
	l, cfg, opts := memoFixture(t)
	m := NewMemo(0)
	const callers = 16
	var wg sync.WaitGroup
	plans := make([]LayerPlan, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			li := l
			li.Name = "alias"
			lp, _, err := exploreMemo(t, m, li, cfg, opts)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = lp
		}(i)
	}
	wg.Wait()
	if ms := m.Stats(); ms.Misses != 1 || ms.Hits != callers-1 {
		t.Fatalf("memo stats %+v, want 1 miss (one exploration) and %d hits", ms, callers-1)
	}
	for i, lp := range plans {
		if lp.Analysis.Layer.Name != "alias" {
			t.Fatalf("caller %d got layer identity %q, want patched alias", i, lp.Analysis.Layer.Name)
		}
	}
}

// TestMemoErrorsNeverCached: a failing exploration must not poison the
// key — the next caller under the same key recomputes and can succeed.
// The failure is an unknown operating point explored under the good
// options' key, standing in for a transient error.
func TestMemoErrorsNeverCached(t *testing.T) {
	l, cfg, opts := memoFixture(t)
	m := NewMemo(0)
	key := testKey(l, cfg, opts)
	env, err := envFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.OperatingPoint = "no-such-point"
	_, _, hit, err := m.exploreEnv(key, l, cfg, bad, env)
	if err == nil || hit {
		t.Fatalf("explore = hit=%v err=%v, want miss with the exploration error", hit, err)
	}
	if ms := m.Stats(); ms.Entries != 0 {
		t.Fatalf("failed exploration left %d entries", ms.Entries)
	}
	lp, _, hit, err := m.exploreEnv(key, l, cfg, opts, env)
	if err != nil || hit {
		t.Fatalf("recompute after failure: hit=%v err=%v", hit, err)
	}
	if lp.Analysis.Layer.Name != l.Name {
		t.Fatal("recompute returned wrong layer")
	}
}

// TestMemoCapacityFullComputesWithoutRecording: a saturated table
// degrades to a pass-through — no eviction, no new entries, correct
// results.
func TestMemoCapacityFullComputesWithoutRecording(t *testing.T) {
	net := models.AlexNet()
	cfg := hw.TestAcceleratorEDRAM()
	opts := ranaOpts()
	m := NewMemo(1)
	for i, l := range net.Layers {
		lp, _, err := exploreMemo(t, m, l, cfg, opts)
		if err != nil {
			t.Fatalf("layer %d: %v", i, err)
		}
		if lp.Analysis.Layer.Name != l.Name {
			t.Fatalf("layer %d: wrong identity %q", i, lp.Analysis.Layer.Name)
		}
	}
	if ms := m.Stats(); ms.Entries != 1 {
		t.Fatalf("capacity-1 memo holds %d entries", ms.Entries)
	}
}

// TestMemoCountsUnrecordedExplorations: a memo too small for the zoo
// still accounts for every layer its compiles explore. Those it
// recorded are misses, and those it had no room for are unrecorded, so
// the two grow by the compiles' own MemoMisses between them.
func TestMemoCountsUnrecordedExplorations(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	m := NewMemo(40)
	opts := ranaOpts()
	opts.Memo = m
	before, explored := m.Stats(), 0
	for _, net := range models.Benchmarks() {
		_, ns, err := ExploreNetworkContext(context.Background(), net, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		explored += ns.MemoMisses
	}
	after := m.Stats()
	misses, unrecorded := after.Misses-before.Misses, after.Unrecorded-before.Unrecorded
	if misses == 0 || unrecorded == 0 {
		t.Fatalf("memo stats %+v -> %+v: want both recorded and unrecorded explorations", before, after)
	}
	if misses+unrecorded != uint64(explored) {
		t.Errorf("%d misses + %d unrecorded, but the compiles explored %d layers", misses, unrecorded, explored)
	}
}

// TestMemoNilReceiverComputes: a nil memo is a plain compute call.
func TestMemoNilReceiverComputes(t *testing.T) {
	l, cfg, opts := memoFixture(t)
	var m *Memo
	lp, hit, err := exploreMemo(t, m, l, cfg, opts)
	if err != nil || hit {
		t.Fatalf("nil memo: hit=%v err=%v", hit, err)
	}
	if lp.Analysis.Layer.Name != l.Name {
		t.Fatal("nil memo returned wrong layer")
	}
}

// TestMemoSignatureSeparatesPlanRelevantOptions: options that change plan
// bytes must key separately; throughput knobs must collapse.
func TestMemoSignatureSeparatesPlanRelevantOptions(t *testing.T) {
	a := ranaOpts()
	b := ranaOpts()
	b.Parallelism = 7
	b.DisableMemo = true
	cfg := hw.TestAcceleratorEDRAM()
	if frameDigest(cfg, a) != frameDigest(cfg, b) {
		t.Fatal("throughput knobs leaked into the memo frame")
	}
	c := ranaOpts()
	c.Search = search.Beam
	if frameDigest(cfg, a) == frameDigest(cfg, c) {
		t.Fatal("search strategy missing from the memo frame")
	}
	d := ranaOpts()
	d.NaturalTiling = true
	if frameDigest(cfg, a) == frameDigest(cfg, d) {
		t.Fatal("natural tiling missing from the memo frame")
	}
}

// TestMemoFoldsDefaultBackendSpelling: the explicit default backend name
// and the empty spelling are one scheduling problem, so a shared memo
// must serve the second compile entirely from the first one's entries.
func TestMemoFoldsDefaultBackendSpelling(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.AlexNet()
	opts := ranaOpts()
	opts.Memo = NewMemo(0)
	ctx := context.Background()
	p1, _, err := ExploreNetworkContext(ctx, net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = mem.DefaultName(cfg.BufferTech)
	p2, s2, err := ExploreNetworkContext(ctx, net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.MemoHits != 5 || s2.MemoMisses != 0 {
		t.Fatalf("explicit-default compile: %d hits, %d misses, want 5 hits", s2.MemoHits, s2.MemoMisses)
	}
	if ms := opts.Memo.Stats(); ms.Entries != 5 {
		t.Fatalf("memo holds %d entries, want 5 (one per AlexNet layer)", ms.Entries)
	}
	j1, _ := json.Marshal(Encode(p1))
	j2, _ := json.Marshal(Encode(p2))
	if string(j1) != string(j2) {
		t.Fatal("explicit default backend changed plan bytes")
	}
}

// TestMemoKeyCoversAllFields is the tripwire for layerKey's injective
// encoding: it writes every semantic field of models.ConvLayer by hand,
// so adding a field without extending the encoding would silently alias
// distinct problems. Bump the count here only together with layerKey.
// The frame's fields are TestCanonicalCoversFields' tripwire.
func TestMemoKeyCoversAllFields(t *testing.T) {
	if got, want := reflect.TypeOf(models.ConvLayer{}).NumField(), 10; got != want {
		t.Errorf("models.ConvLayer has %d fields, layerKey encodes for %d — extend the key encoding", got, want)
	}
}

// wireBytes is the plan's wire encoding — what byte-identity means.
func wireBytes(t *testing.T, p *Plan) string {
	t.Helper()
	raw, err := json.Marshal(Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// saturatedMemo returns a one-entry shared memo already filled by an
// AlexNet compile under the same options, so every later shape finds
// it full — the state a long-running ranad's memo reaches.
func saturatedMemo(t *testing.T, cfg hw.Config) *Memo {
	t.Helper()
	m := NewMemo(1)
	opts := ranaOpts()
	opts.Memo = m
	if _, _, err := ExploreNetworkContext(context.Background(), models.AlexNet(), cfg, opts); err != nil {
		t.Fatal(err)
	}
	if ms := m.Stats(); ms.Entries != 1 {
		t.Fatalf("priming left %d entries, want a full one-entry memo", ms.Entries)
	}
	return m
}

// TestSaturatedMemoDedupsRepeatedShapes: a full shared memo records no
// new shape, yet ResNet still explores each of its 20 distinct shapes
// once — the in-compile dedup serves the other 33 layers, counts them
// as hits in the compile's stats and the memo's counters, and the plan
// is byte-identical to a compile on an empty memo.
func TestSaturatedMemoDedupsRepeatedShapes(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.ResNet()
	ctx := context.Background()

	full := saturatedMemo(t, cfg)
	before := full.Stats()
	opts := ranaOpts()
	opts.Memo = full
	// One worker: the pruned/evaluated split is compared below, and it
	// only repeats exactly on the sequential path.
	opts.Parallelism = 1
	p, ns, err := ExploreNetworkContext(ctx, net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ns.MemoHits != 33 || ns.MemoMisses != 20 {
		t.Fatalf("saturated-memo compile: %d hits, %d misses, want 33 and 20", ns.MemoHits, ns.MemoMisses)
	}
	after := full.Stats()
	if after.Entries != 1 || after.Misses != before.Misses || after.Hits-before.Hits != 33 {
		t.Fatalf("memo stats %+v -> %+v, want 33 more hits and nothing recorded", before, after)
	}

	empty := ranaOpts()
	empty.Memo = NewMemo(0)
	empty.Parallelism = 1
	pe, nse, err := ExploreNetworkContext(ctx, net, cfg, empty)
	if err != nil {
		t.Fatal(err)
	}
	if nse.MemoHits != 33 || nse.MemoMisses != 20 {
		t.Fatalf("empty-memo compile: %d hits, %d misses, want 33 and 20", nse.MemoHits, nse.MemoMisses)
	}
	if wireBytes(t, p) != wireBytes(t, pe) {
		t.Fatal("saturated-memo plan differs from the empty-memo plan")
	}
	if ns.Search != nse.Search {
		t.Fatalf("search work %+v on the saturated memo, %+v on the empty one", ns.Search, nse.Search)
	}
}

// TestDedupConcurrentCompilesOnSharedMemos races 8 ResNet and GoogLeNet
// compiles through one saturated and one warm shared memo: the dedup's
// fills, the representatives' memo traffic and the hit counting all
// run concurrently, and every plan must equal the sequential
// un-memoized plan byte for byte.
func TestDedupConcurrentCompilesOnSharedMemos(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	nets := []models.Network{models.ResNet(), models.GoogLeNet()}
	want := make([]string, len(nets))
	for i, net := range nets {
		ref := ranaOpts()
		ref.DisableMemo = true
		ref.Parallelism = 1
		p, _, err := ExploreNetworkContext(ctx, net, cfg, ref)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wireBytes(t, p)
	}
	// The warm memo holds ResNet's shapes, so ResNet compiles peek
	// while GoogLeNet compiles race to own and wait on fresh entries.
	warm := NewMemo(0)
	prime := ranaOpts()
	prime.Memo = warm
	if _, _, err := ExploreNetworkContext(ctx, nets[0], cfg, prime); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		memo *Memo
	}{
		{"saturated", saturatedMemo(t, cfg)},
		{"warm", warm},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const compiles = 8
			var wg sync.WaitGroup
			for c := 0; c < compiles; c++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					opts := ranaOpts()
					opts.Memo = tc.memo
					opts.Parallelism = 2
					p, ns, err := ExploreNetworkContext(ctx, nets[i], cfg, opts)
					if err != nil {
						t.Error(err)
						return
					}
					raw, err := json.Marshal(Encode(p))
					if err != nil {
						t.Error(err)
						return
					}
					if string(raw) != want[i] {
						t.Errorf("%s: concurrent plan differs from the sequential one", nets[i].Name)
					}
					if ns.MemoHits+ns.MemoMisses != len(nets[i].Layers) {
						t.Errorf("%s: %d hits + %d misses != %d layers", nets[i].Name, ns.MemoHits, ns.MemoMisses, len(nets[i].Layers))
					}
				}(c % len(nets))
			}
			wg.Wait()
		})
	}
}

// TestDedupFailingRepresentativeFailsWithItsOwnError: when the first
// layer of a repeated shape fails, the compile reports that layer's
// error — the first error in layer order, as without the dedup.
func TestDedupFailingRepresentativeFailsWithItsOwnError(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	l, ok := models.AlexNet().Layer("conv3")
	if !ok {
		t.Fatal("missing fixture layer")
	}
	net := models.Network{Name: "twins"}
	for _, name := range []string{"first", "second", "third"} {
		li := l
		li.Name = name
		net.Layers = append(net.Layers, li)
	}
	opts := ranaOpts()
	opts.LayerBudgets = map[string]float64{"first": 1e-12, "third": 1e-12}
	opts.Backend = "approx-dram"
	opts.OperatingPoint = "v0.8"
	var errs []string
	for _, disable := range []bool{false, true} {
		o := opts
		o.DisableMemo = disable
		_, _, err := ExploreNetworkContext(context.Background(), net, cfg, o)
		if err == nil {
			t.Fatalf("DisableMemo=%v: compile succeeded past an over-budget pinned point", disable)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("dedup error %q, un-deduped error %q", errs[0], errs[1])
	}
	if !strings.Contains(errs[0], "twins/first") {
		t.Fatalf("error %q does not name the first layer", errs[0])
	}
}

// parametricOptionSets are the option sets the shared-memo interval
// tests hold to their memo-free plans: both controllers, a guard
// override, the approximate-DRAM ladder, the enlarged RTC × all-mappings
// space, every strategy (two beam widths) and the natural-tiling
// baseline with and without a pinned point.
func parametricOptionSets() map[string]Options {
	sets := map[string]Options{}
	add := func(name string, tune func(*Options)) {
		o := ranaOpts()
		tune(&o)
		sets[name] = o
	}
	add("conventional", func(*Options) {})
	add("optimized", func(o *Options) { o.Controller = memctrl.RefreshOptimized{} })
	add("guard-1", func(o *Options) { o.Controller, o.RetentionGuard = memctrl.RefreshOptimized{}, 1 })
	add("approx-dram", func(o *Options) { o.Backend, o.ErrorBudget = "approx-dram", 1e-3 })
	add("rtc-all", func(o *Options) { o.Controller, o.Traversal, o.Mapping = memctrl.RefreshOptimized{}, "rtc", "all" })
	add("exhaustive", func(o *Options) { o.Search = search.Exhaustive })
	add("beam", func(o *Options) { o.Search = search.Beam })
	add("beam-8", func(o *Options) { o.Search, o.BeamWidth = search.Beam, 8 })
	add("natural", func(o *Options) { o.NaturalTiling = true })
	add("natural-pinned", func(o *Options) {
		o.Patterns, o.NaturalTiling = []pattern.Kind{pattern.OD, pattern.WD}, true
		o.Backend, o.OperatingPoint = "approx-dram", "v0.9"
	})
	return sets
}

// parametricIntervals falls, rises and falls again across the Fig. 16
// range, so one shared memo builds, queries and rebuilds frontiers.
var parametricIntervals = []time.Duration{
	734 * time.Microsecond, 180 * time.Microsecond, 1000 * time.Microsecond,
	45 * time.Microsecond, 300 * time.Microsecond, 45 * time.Microsecond, 90 * time.Microsecond,
}

// coldBytes is the plan's wire bytes compiled with no memo and no dedup.
func coldBytes(t *testing.T, net models.Network, cfg hw.Config, opts Options) string {
	t.Helper()
	opts.Memo, opts.DisableMemo, opts.Parallelism = nil, true, 1
	p, _, err := ExploreNetworkContext(context.Background(), net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return wireBytes(t, p)
}

// TestMemoParametricAcrossIntervals: one shared memo per option set,
// compiled at falling and rising intervals, serves every plan byte-
// identical to a memo-free compile at that interval, answers the
// intervals at or above a frontier's from it and rebuilds below.
func TestMemoParametricAcrossIntervals(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.AlexNet()
	ctx := context.Background()
	for name, base := range parametricOptionSets() {
		t.Run(name, func(t *testing.T) {
			memo := NewMemo(0)
			for i, iv := range parametricIntervals {
				opts := base
				opts.RefreshInterval = iv
				want := coldBytes(t, net, cfg, opts)
				opts.Memo = memo
				p, ns, err := ExploreNetworkContext(ctx, net, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if wireBytes(t, p) != want {
					t.Fatalf("interval %v: shared-memo plan differs from the memo-free plan", iv)
				}
				if i == len(parametricIntervals)-1 && ns.MemoHits != len(net.Layers) {
					t.Errorf("interval %v above the lowest frontier: %d hits, want %d", iv, ns.MemoHits, len(net.Layers))
				}
			}
			st := memo.Stats()
			if st.Hits == 0 || st.Records == 0 || st.Entries != len(net.Layers) {
				t.Errorf("memo stats %+v: want hits, records and one entry per layer", st)
			}
			refreshing := !base.NaturalTiling
			if refreshing && st.Rebuilds == 0 {
				t.Errorf("falling intervals rebuilt nothing: %+v", st)
			}
			if !refreshing && st.Misses != uint64(len(net.Layers)) {
				t.Errorf("an interval-independent frontier was rebuilt: %+v", st)
			}
		})
	}
}

// TestMemoParametricRebuildRace races 8 GoogLeNet and ResNet compiles
// through one shared memo at interleaved falling and rising intervals,
// so rebuilds replace entries while other compiles query and wait on
// them. Every plan must equal the memo-free plan at its interval, and
// the memo must account for every layer the compiles explored, those
// that met a rebuild in flight included.
func TestMemoParametricRebuildRace(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	nets := []models.Network{models.GoogLeNet(), models.ResNet()}
	intervals := []time.Duration{900 * time.Microsecond, 120 * time.Microsecond, 500 * time.Microsecond, 45 * time.Microsecond}
	base := ranaOpts()
	base.Controller = memctrl.RefreshOptimized{}
	want := map[[2]int]string{}
	for n, net := range nets {
		for k, iv := range intervals {
			o := base
			o.RefreshInterval = iv
			want[[2]int{n, k}] = coldBytes(t, net, cfg, o)
		}
	}
	memo := NewMemo(0)
	const compiles = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	explored := 0
	for c := 0; c < compiles; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := c % len(nets)
			for r := range intervals {
				// Odd compiles walk the intervals backwards, so falling and
				// rising sequences interleave on the same entries.
				k := r
				if c%2 == 1 {
					k = len(intervals) - 1 - r
				}
				o := base
				o.RefreshInterval, o.Memo, o.Parallelism = intervals[k], memo, 2
				p, ns, err := ExploreNetworkContext(ctx, nets[n], cfg, o)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				explored += ns.MemoMisses
				mu.Unlock()
				if wireBytes(t, p) != want[[2]int{n, k}] {
					t.Errorf("%s at %v: shared-memo plan differs from the memo-free plan", nets[n].Name, intervals[k])
				}
			}
		}(c)
	}
	wg.Wait()
	st := memo.Stats()
	if st.Rebuilds == 0 {
		t.Errorf("no rebuild raced: %+v", st)
	}
	if st.Misses+st.Unrecorded != uint64(explored) {
		t.Errorf("memo stats %+v account for %d explorations, the compiles made %d", st, st.Misses+st.Unrecorded, explored)
	}
}

// descendingIntervals is rana-bench's descending sweep: the Fig. 16
// range from 1 ms down to the conventional 45 µs, each interval below
// every earlier one.
var descendingIntervals = []time.Duration{
	1000 * time.Microsecond, retention.TolerableRetentionTime, 500 * time.Microsecond, 300 * time.Microsecond,
	180 * time.Microsecond, 120 * time.Microsecond, 80 * time.Microsecond, retention.TypicalRetentionTime,
}

// zooShapes is each zoo network's count of distinct memo keys.
var zooShapes = map[string]uint64{"AlexNet": 5, "VGG": 9, "GoogLeNet": 49, "ResNet": 20}

// TestMemoRebuildsOnceToConventionalInterval: a request below a
// frontier's lo rebuilds it down to the conventional 45 µs, so a sweep
// of falling intervals rebuilds each shape once, on the default space
// and on RTC × all mappings, and every plan equals the memo-free plan at
// its interval (a rebuild's owner is answered at its own interval).
// Below 45 µs a request rebuilds at its own interval, and the intervals
// at or above that one then hit. Short mode and the race detector, which
// adds nothing to these sequential sweeps, run the default space only.
func TestMemoRebuildsOnceToConventionalInterval(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	for space, base := range envelopeOptions() {
		if space != "default" && (testing.Short() || raceEnabled) {
			continue
		}
		for _, net := range models.Benchmarks() {
			t.Run(space+"/"+net.Name, func(t *testing.T) {
				memo := NewMemo(0)
				compile := func(iv time.Duration) NetworkStats {
					t.Helper()
					opts := base
					opts.RefreshInterval = iv
					want := coldBytes(t, net, cfg, opts)
					opts.Memo = memo
					p, ns, err := ExploreNetworkContext(ctx, net, cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					if wireBytes(t, p) != want {
						t.Fatalf("%v: shared-memo plan differs from the memo-free plan", iv)
					}
					return ns
				}
				shapes := zooShapes[net.Name]
				for _, iv := range descendingIntervals {
					compile(iv)
				}
				if st := memo.Stats(); st.Rebuilds != shapes || st.Misses != 2*shapes || st.Unrecorded != 0 {
					t.Errorf("descending sweep: %+v, want each of %d shapes built once and rebuilt once", st, shapes)
				}
				compile(30 * time.Microsecond)
				if st := memo.Stats(); st.Rebuilds != 2*shapes {
					t.Errorf("30 µs: %d rebuilds, want %d", st.Rebuilds, 2*shapes)
				}
				if ns := compile(40 * time.Microsecond); ns.MemoHits != len(net.Layers) {
					t.Errorf("40 µs after a 30 µs rebuild: %d hits, want %d", ns.MemoHits, len(net.Layers))
				}
			})
		}
	}
}

// TestMemoFloorRebuildRace races GoogLeNet compiles at 200 µs against
// one at 300 µs on a memo whose frontiers were built at 734 µs: whichever
// reaches a shape first rebuilds it at 45 µs, and the others wait on that
// rebuild rather than exploring unrecorded. Every plan equals the
// memo-free plan at its interval, and each shape rebuilds exactly once.
func TestMemoFloorRebuildRace(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	net := models.GoogLeNet()
	base := ranaOpts()
	base.Controller = memctrl.RefreshOptimized{}
	intervals := []time.Duration{300 * time.Microsecond, 200 * time.Microsecond, 200 * time.Microsecond, 200 * time.Microsecond}
	want := map[time.Duration]string{}
	for _, iv := range intervals {
		o := base
		o.RefreshInterval = iv
		want[iv] = coldBytes(t, net, cfg, o)
	}
	memo := NewMemo(0)
	base.Memo, base.Parallelism = memo, 2
	if _, _, err := ExploreNetworkContext(ctx, net, cfg, base); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	explored := int(memo.Stats().Misses)
	for _, iv := range intervals {
		wg.Add(1)
		go func(iv time.Duration) {
			defer wg.Done()
			o := base
			o.RefreshInterval = iv
			<-start
			p, ns, err := ExploreNetworkContext(ctx, net, cfg, o)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			explored += ns.MemoMisses
			mu.Unlock()
			if wireBytes(t, p) != want[iv] {
				t.Errorf("%v: shared-memo plan differs from the memo-free plan", iv)
			}
		}(iv)
	}
	close(start)
	wg.Wait()
	st := memo.Stats()
	if st.Unrecorded != 0 || st.Rebuilds != zooShapes[net.Name] {
		t.Errorf("memo stats %+v: want no unrecorded exploration and %d rebuilds", st, zooShapes[net.Name])
	}
	if st.Misses+st.Unrecorded != uint64(explored) {
		t.Errorf("memo stats %+v account for %d explorations, the compiles made %d", st, st.Misses+st.Unrecorded, explored)
	}
}

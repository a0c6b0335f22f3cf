package sched

// Allocation-regression gates for the pooled compile path. These
// steady states must stay allocation-free:
//
//   - the warm-memo compile: every layer served from a shared Memo's
//     completed entries through the peek pass;
//   - the steady-state explore loop: an un-memoized sequential compile
//     whose scratch (explore arenas, bound, pricing contexts, compile
//     state) is all pooled — under the default pruned strategy and
//     under beam, whose survivor scratch is pooled too;
//   - the saturated-memo compile: ranad's shared Memo, too full to
//     record anything, so the in-compile dedup alone serves repeated
//     shapes.
//
// Every gate leaves Options.Prefix nil, the setting library callers and
// ranad compile with.
//
// testing.AllocsPerRun pins GOMAXPROCS to 1 and does a warmup run, so
// the pools are primed before counting. The gates are skipped under the
// race detector, whose instrumentation allocates on its own.

import (
	"context"
	"slices"
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched/search"
)

// TestWarmMemoCompileAllocFree gates the whole zoo, not one small net:
// AlexNet's 5 layers hid a Network.Validate map that only heap-allocated
// past 8 layers. It gates the default space and RTC × all mappings,
// whose axis specs every compile resolves again (Validate, envFor and
// the memo frame) and used to parse each time, 27 allocations per
// GoogLeNet compile.
func TestWarmMemoCompileAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	for _, space := range []struct{ prefix, traversal, mapping string }{
		{"", "", ""},
		{"rtc-all/", "rtc", "all"},
	} {
		for _, net := range models.Benchmarks() {
			t.Run(space.prefix+net.Name, func(t *testing.T) {
				opts := ranaOpts()
				opts.Traversal, opts.Mapping = space.traversal, space.mapping
				opts.Memo = NewMemo(0)
				opts.Parallelism = 1

				var p Plan
				if _, err := ExploreNetworkInto(ctx, net, cfg, opts, &p); err != nil {
					t.Fatal(err)
				}
				warm := p
				warm.Layers = slices.Clone(p.Layers)
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := ExploreNetworkInto(ctx, net, cfg, opts, &p); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("warm-memo compile allocated %.1f objects/op, want 0", allocs)
				}
				if len(p.Layers) != len(warm.Layers) {
					t.Fatalf("warm compile produced %d layers, want %d", len(p.Layers), len(warm.Layers))
				}
				for i := range p.Layers {
					if p.Layers[i] != warm.Layers[i] {
						t.Fatalf("layer %d drifted between warm compiles", i)
					}
				}
			})
		}
	}
}

func TestSteadyStateExploreAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		net  models.Network
		tune func(*testing.T, *Options)
	}{
		{"memo-off", models.AlexNet(), func(_ *testing.T, o *Options) { o.DisableMemo = true }},
		{"beam", models.AlexNet(), func(_ *testing.T, o *Options) { o.DisableMemo = true; o.Search = search.Beam }},
		{"saturated-memo", models.ResNet(), func(t *testing.T, o *Options) { o.Memo = saturatedMemo(t, cfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := ranaOpts()
			opts.Parallelism = 1
			tc.tune(t, &opts)
			var p Plan
			if _, err := ExploreNetworkInto(ctx, tc.net, cfg, opts, &p); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := ExploreNetworkInto(ctx, tc.net, cfg, opts, &p); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state explore compile allocated %.1f objects/op, want 0", allocs)
			}
		})
	}
}

package sched

import (
	"context"
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched/search"
)

// BenchmarkScheduleLayerStrategies compares the per-layer exploration
// cost of the three search strategies on a representative mid-network
// layer. The evals/op metric is the number of exact Eq. 14 pricings —
// the expensive operation pruning and beaming exist to minimize — so a
// regression in either the pruning ratio or the allocation profile is
// visible from the benchmark output alone.
func BenchmarkScheduleLayerStrategies(b *testing.B) {
	cfg := hw.TestAcceleratorEDRAM()
	l, ok := models.VGG().Layer("conv4_2")
	if !ok {
		b.Fatal("missing benchmark layer")
	}
	for _, s := range search.Strategies() {
		opts := ranaOpts()
		opts.Search = s
		b.Run(string(s), func(b *testing.B) {
			b.ReportAllocs()
			var stats search.Stats
			for i := 0; i < b.N; i++ {
				_, st, err := ExploreLayer(l, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				stats = st
			}
			b.ReportMetric(float64(stats.Evaluated), "evals/op")
		})
	}
}

// BenchmarkCompileNetwork times whole-network scheduling over the model
// zoo in two configurations: the sequential un-memoized baseline
// (Parallelism 1, DisableMemo) against the optimized default (pooled
// workers + in-compile shape dedup). The evals/op and memohit/op
// metrics expose where the speedup comes from — ResNet and GoogLeNet
// repeat shapes heavily, so their memoized runs evaluate a fraction of
// the baseline's candidates.
func BenchmarkCompileNetwork(b *testing.B) {
	cfg := hw.TestAcceleratorEDRAM()
	variants := []struct {
		name string
		tune func(*Options)
	}{
		{"baseline", func(o *Options) { o.Parallelism = 1; o.DisableMemo = true; o.DisableIncremental = true }},
		{"optimized", func(o *Options) {}},
	}
	for _, net := range models.Benchmarks() {
		for _, v := range variants {
			opts := ranaOpts()
			v.tune(&opts)
			b.Run(net.Name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				var ns NetworkStats
				for i := 0; i < b.N; i++ {
					// Options.Memo stays nil: hits come from the in-compile
					// dedup alone, so hit rates measure one compile, not an
					// ever-warmer cache.
					_, st, err := ExploreNetworkContext(context.Background(), net, cfg, opts)
					if err != nil {
						b.Fatal(err)
					}
					ns = st
				}
				b.ReportMetric(float64(ns.Search.Evaluated), "evals/op")
				b.ReportMetric(float64(ns.MemoHits), "memohit/op")
			})
		}
	}
}

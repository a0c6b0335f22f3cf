package sched_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/verify/gen"
)

// TestRefreshEnergyMonotoneInInterval is the retention-parametric memo's
// proof obligation, candidate by candidate: at a fixed search cell a
// longer refresh interval never raises the exact energy, bit for bit,
// and the refresh-free energy E0 a frontier sorts by never exceeds it.
// Cells are drawn from zoo and random layers on zoo and random
// accelerators, under both controllers, the default guard band, 0.5 and
// 1, every approx-dram point (the error budget raised to admit v0.7),
// every traversal of the RTC ladder and every mapping.
func TestRefreshEnergyMonotoneInInterval(t *testing.T) {
	g := gen.New(16)
	rng := rand.New(rand.NewPCG(16, 61))
	var zoo []models.ConvLayer
	for _, net := range models.Benchmarks() {
		zoo = append(zoo, net.Layers...)
	}
	ctrls := []memctrl.Controller{memctrl.Conventional{}, memctrl.RefreshOptimized{}}
	guards := []float64{0, 0.5, 1}
	checked, fell := 0, 0
	for i := 0; i < 800; i++ {
		l, cfg := zoo[rng.IntN(len(zoo))], hw.TestAcceleratorEDRAM()
		if i%2 == 1 {
			l, cfg = g.Layer(), g.Config()
		}
		k, tl := g.Pattern(), g.Tiling(l, cfg)
		opts := sched.Options{
			Patterns:       []pattern.Kind{k},
			Controller:     ctrls[rng.IntN(len(ctrls))],
			RetentionGuard: guards[rng.IntN(len(guards))],
			Backend:        "approx-dram",
			ErrorBudget:    1,
		}
		point, trav, mapping := rng.IntN(4), rng.IntN(8), rng.IntN(3)
		// Log-uniform intervals from 1 µs to 10 ms, ascending.
		ivs := make([]time.Duration, 6)
		for j := range ivs {
			ivs[j] = time.Duration(math.Exp(math.Log(1e3) + rng.Float64()*math.Log(1e4)))
		}
		slices.Sort(ivs)
		prev := math.Inf(1)
		for _, iv := range ivs {
			opts.RefreshInterval = iv
			e, e0, err := sched.CellEnergiesForTest(l, k, tl, cfg, opts, point, trav, mapping)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			if e > prev {
				t.Errorf("case %d (%v %v at point %d, trav %d, map %d on %+v): energy rose to %v pJ at %v from %v pJ",
					i, k, tl, point, trav, mapping, l, e, iv, prev)
			}
			if e0 > e {
				t.Errorf("case %d: E0 %v pJ exceeds the exact %v pJ at %v", i, e0, e, iv)
			}
			if e < prev && !math.IsInf(prev, 1) {
				fell++
			}
			prev = e
			checked++
		}
	}
	if checked == 0 || fell == 0 {
		t.Fatalf("%d cells priced, %d energy drops: the draw never moved the refresh term", checked, fell)
	}
	t.Logf("%d cells priced, energy fell %d times", checked, fell)
}

package pattern

import (
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
)

// FuzzAnalyze: for any valid fuzzed (layer, tiling) pair and every
// computation pattern, the analytical model satisfies its structural
// invariants — the MAC count is the layer's exact arithmetic, the cycle
// count is achievable (at least MACs/PEs) and converts consistently to
// wall time, utilization is a true ratio, no data lifetime outlives the
// layer, and the storage footprint decides buffer fit. The in-place
// form (AnalyzeTraversalInto), written over the previous candidate's
// result, also equals the value form field for field — on the layer
// and a two-group variant, under every traversal the scheduler prices.
func FuzzAnalyze(f *testing.F) {
	f.Add(3, 4, 8, 3, 1, 1, 2, 2, 2, 2)
	f.Add(1, 1, 1, 1, 1, 0, 1, 1, 1, 1)
	f.Add(16, 16, 14, 5, 2, 2, 4, 4, 7, 7)
	f.Add(8, 8, 9, 1, 1, 0, 8, 8, 3, 9)
	f.Fuzz(func(t *testing.T, n, m, h, k, s, p, tm, tn, tr, tc int) {
		l := models.ConvLayer{
			Name: "fuzz",
			N:    1 + abs(n)%32,
			M:    1 + abs(m)%32,
			H:    1 + abs(h)%20,
			K:    1 + abs(k)%5,
			S:    1 + abs(s)%2,
			P:    abs(p) % 3,
		}
		l.L = l.H
		if l.K > l.H {
			l.K = l.H
		}
		if l.P >= l.K {
			l.P = l.K - 1
		}
		ti := Tiling{
			Tm: 1 + abs(tm)%l.M,
			Tn: 1 + abs(tn)%l.N,
			Tr: 1 + abs(tr)%l.R(),
			Tc: 1 + abs(tc)%l.C(),
		}
		if l.Validate() != nil || ti.Validate() != nil {
			t.Skip()
		}
		cfg := hw.TestAcceleratorEDRAM()
		for _, kind := range []Kind{ID, OD, WD} {
			a := MustAnalyze(l, kind, ti, cfg)
			if a.MACs != l.MACs() {
				t.Fatalf("%v: MACs %d, layer has %d", kind, a.MACs, l.MACs())
			}
			if a.Cycles == 0 {
				t.Fatalf("%v: zero cycles", kind)
			}
			if min := a.MACs / uint64(cfg.PEs()); a.Cycles < min {
				t.Fatalf("%v: %d cycles below compute bound %d", kind, a.Cycles, min)
			}
			wantExec := time.Duration(float64(a.Cycles) / cfg.FrequencyHz * float64(time.Second))
			if d := a.ExecTime - wantExec; d < -time.Nanosecond || d > time.Nanosecond {
				t.Fatalf("%v: exec %v inconsistent with %d cycles (%v)", kind, a.ExecTime, a.Cycles, wantExec)
			}
			if a.Utilization <= 0 || a.Utilization > 1+1e-12 {
				t.Fatalf("%v: utilization %g", kind, a.Utilization)
			}
			if lt := a.Lifetimes.Max(); lt > a.ExecTime+time.Nanosecond {
				t.Fatalf("%v: lifetime %v exceeds exec %v", kind, lt, a.ExecTime)
			}
			if a.FitsBuffer != (a.BufferStorage.Total() <= cfg.BufferWords) {
				t.Fatalf("%v: FitsBuffer=%v but storage %d of %d",
					kind, a.FitsBuffer, a.BufferStorage.Total(), cfg.BufferWords)
			}
		}

		grouped := l
		grouped.N, grouped.M, grouped.Groups = 2*l.N, 2*l.M, 2
		var dst Analysis
		for _, layer := range []models.ConvLayer{l, grouped} {
			for _, kind := range []Kind{ID, OD, WD} {
				for _, blocks := range []int{0, 2, 4, 8} {
					trv := Traversal{Blocks: blocks}
					want, err := AnalyzeTraversal(layer, kind, ti, cfg, trv)
					if err != nil {
						t.Fatal(err)
					}
					if err := AnalyzeTraversalInto(&dst, &layer, kind, ti, &cfg, trv); err != nil {
						t.Fatal(err)
					}
					if dst != want {
						t.Fatalf("%v %v groups=%d: in place %+v, value form %+v", kind, trv, layer.Groups, dst, want)
					}
				}
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // MinInt
			return 0
		}
		return -x
	}
	return x
}

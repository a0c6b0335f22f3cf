// The in-compile dedup's shape table against a naive scan, on generated
// layer sequences. It lives in an external test package because it
// draws layers from internal/verify/gen, which itself imports sched.
package sched_test

import (
	"fmt"
	"math/bits"
	"testing"

	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/verify/gen"
)

// naiveReps is the dedup by a scan over every earlier layer: each
// layer's first earlier layer with its memo shape, or -1.
func naiveReps(layers []models.ConvLayer, opts sched.Options) []int {
	reps := make([]int, len(layers))
	for i := range layers {
		reps[i] = -1
		for j := 0; j < i; j++ {
			if sched.SameShapeForTest(layers[j], layers[i], opts) {
				reps[i] = j
				break
			}
		}
	}
	return reps
}

// TestDedupProbeMatchesNaiveScan holds the dedup's open-addressed shape
// table to naiveReps over generated layer sequences with planted
// repeats: renamed or restaged copies of earlier layers (one shape),
// copies with one more output channel or a stride of two instead of one
// (another shape), and, under per-layer budgets, copies whose own
// budget splits them off. Each sequence is probed in the smallest power
// of two that holds its shapes, so probes collide and wrap around, and
// in the table size a compile uses.
func TestDedupProbeMatchesNaiveScan(t *testing.T) {
	r := gen.New(26)
	planted := 0
	for c := 0; c < 300; c++ {
		opts := sched.Options{}
		budgeted := c%3 == 0
		if budgeted {
			opts.LayerBudgets = map[string]float64{}
		}
		n := 8 + c%57
		layers := make([]models.ConvLayer, 0, n)
		for i := 0; i < n; i++ {
			var l models.ConvLayer
			if i == 0 || c%5 == i%5 {
				l = r.Layer()
			} else {
				l = layers[(i*7+c)%i]
				switch i % 4 {
				case 0:
					l.Stage = "restaged"
				case 1:
					l.M += max(l.Groups, 1)
				case 2:
					if l.S == 1 {
						l.S = 2
					}
				}
				planted++
			}
			l.Name = fmt.Sprintf("layer%d", i)
			if budgeted && i%3 == 0 {
				opts.LayerBudgets[l.Name] = 1e-6 * float64(1+i%2)
			}
			layers = append(layers, l)
		}
		want := naiveReps(layers, opts)
		distinct := 0
		for _, j := range want {
			if j < 0 {
				distinct++
			}
		}
		for _, size := range []int{1 << bits.Len(uint(distinct)), 1 << bits.Len(uint(2*n-1))} {
			got := sched.DedupForTest(layers, opts, size)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %d, %d slots: layer %d repeats %d by the probe, %d by the scan (%+v)",
						c, size, i, got[i], want[i], layers[i])
				}
			}
		}
	}
	if planted == 0 {
		t.Fatal("no repeat planted")
	}
}

// The interval-envelope check on generated layers. It lives in an
// external test package because it draws layers and accelerators from
// internal/verify/gen, which itself imports sched.
package sched_test

import (
	"testing"
	"time"

	"rana/internal/memctrl"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/verify/gen"
)

// TestEnvelopeMatchesPickAndExhaustiveOnGeneratedLayers is the zoo
// envelope check on a verify/gen sample: random layers on random
// accelerators, eDRAM and SRAM, on the default space and RTC × all
// mappings, each envelope held to pick on its untrimmed records and to
// memo-free exhaustive plans at every piece's edges and midpoint.
func TestEnvelopeMatchesPickAndExhaustiveOnGeneratedLayers(t *testing.T) {
	r := gen.New(21)
	checked, pieces := 0, 0
	for i := 0; i < 150; i++ {
		l, cfg := r.Layer(), r.Config()
		for _, axes := range []bool{false, true} {
			opts := sched.Options{Patterns: []pattern.Kind{pattern.OD, pattern.WD}, RefreshInterval: 45 * time.Microsecond,
				Controller: memctrl.RefreshOptimized{}}
			if axes {
				opts.Traversal, opts.Mapping = "rtc", "all"
			}
			if _, _, err := sched.ExploreLayer(l, cfg, opts); err != nil {
				continue // no feasible tiling on this accelerator
			}
			n, err := sched.CheckEnvelopeForTest(l, cfg, opts)
			if err != nil {
				t.Errorf("case %d (%+v on %s, axes %v): %v", i, l, cfg.Name, axes, err)
			}
			checked, pieces = checked+1, pieces+n
		}
	}
	if checked == 0 {
		t.Fatal("no generated layer was schedulable")
	}
	t.Logf("%d envelopes, %d pieces", checked, pieces)
}

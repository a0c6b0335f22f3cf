// Admissibility of the branch-and-bound's lower bound at every search
// cell, against the exact evaluator. These live in an external test
// package because they draw layers from internal/verify/gen, which
// itself imports sched.
package sched_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/verify/gen"
)

// everyCellOptions opens every cell axis the bound prices: all three
// pattern kinds, approx-dram's four operating points (an error budget of
// 1 admits each), the RTC traversal ladder and every mapping policy —
// 4 × 4 × 2 cells per (kind, tiling), under a refresh-pricing
// controller.
func everyCellOptions(kinds ...pattern.Kind) sched.Options {
	if len(kinds) == 0 {
		kinds = []pattern.Kind{pattern.ID, pattern.OD, pattern.WD}
	}
	return sched.Options{
		Patterns:        kinds,
		RefreshInterval: 45 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
		Backend:         "approx-dram",
		ErrorBudget:     1,
		Traversal:       "rtc",
		Mapping:         "all",
	}
}

// checkCells fills out, one slot per candidate of tiling tl, and holds
// each cell to the exact evaluator: +Inf exactly when the cell is
// infeasible, and otherwise at or below its exact energy. The slots are
// in the search engine's order (kind, then point, traversal and
// mapping), and CellEnergiesForTest indexes the cell axes the same way
// on the "rtc" and "all" axes. It returns the cells checked.
func checkCells(t *testing.T, name string, l models.ConvLayer, cfg hw.Config, opts sched.Options,
	fill func(pattern.Tiling, []float64), out []float64, tl pattern.Tiling) int {
	t.Helper()
	fill(tl, out)
	perKind := len(out) / len(opts.Patterns)
	const points, travs, maps = 4, 4, 2
	if perKind != points*travs*maps {
		t.Fatalf("%s: %d cells per kind, want %d", name, perKind, points*travs*maps)
	}
	for j, lb := range out {
		k := opts.Patterns[j/perKind]
		c := j % perKind
		p, tv, m := c/(travs*maps), c/maps%travs, c%maps
		e, _, feasible, err := sched.CellEnergiesForTest(l, k, tl, cfg, opts, p, tv, m)
		if err != nil {
			t.Fatalf("%s: %v %v: %v", name, k, tl, err)
		}
		switch {
		case math.IsInf(lb, 1) == feasible:
			t.Fatalf("%s: %v %v at point %d, traversal %d, mapping %d: bound %v but feasible %v",
				name, k, tl, p, tv, m, lb, feasible)
		case feasible && lb > e:
			t.Fatalf("%s: %v %v at point %d, traversal %d, mapping %d: bound %v exceeds the exact %v",
				name, k, tl, p, tv, m, lb, e)
		}
	}
	return len(out)
}

// TestBoundIsAdmissibleAtEveryCell holds the bound the scheduler
// explores with to the exact evaluator at every cell of every kind, over
// each distinct zoo shape on test-edram and over generated layers on
// generated accelerators, whose small buffers make many cells
// infeasible. Each layer's tilings go through one bound in shuffled
// order, so its (Tm, Tn) prefix terms are reused and refreshed across
// switches as a search never orders them. Short mode and the race
// detector check fewer tilings per layer.
func TestBoundIsAdmissibleAtEveryCell(t *testing.T) {
	perLayer := 50
	if testing.Short() || sched.RaceEnabledForTest {
		perLayer = 5
	}
	opts := everyCellOptions()
	rng := rand.New(rand.NewSource(1))
	check := func(name string, l models.ConvLayer, cfg hw.Config) int {
		fill, cells, tilings, err := sched.BoundForTest(l, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(tilings), func(i, j int) { tilings[i], tilings[j] = tilings[j], tilings[i] })
		out := make([]float64, cells)
		n := 0
		for _, tl := range tilings[:min(perLayer, len(tilings))] {
			n += checkCells(t, name, l, cfg, opts, fill, out, tl)
		}
		return n
	}

	cfg := hw.TestAcceleratorEDRAM()
	seen := map[models.ConvLayer]bool{}
	zoo := 0
	for _, net := range models.Benchmarks() {
		for _, l := range net.Layers {
			shape := l
			shape.Name, shape.Stage = "", ""
			if seen[shape] {
				continue
			}
			seen[shape] = true
			zoo += check(net.Name+"/"+l.Name, l, cfg)
		}
	}
	g := gen.New(17)
	generated := 0
	for i := 0; i < 40; i++ {
		generated += check("gen", g.Layer(), g.Config())
	}
	t.Logf("%d zoo cells over %d shapes and %d generated cells matched", zoo, len(seen), generated)
}

// TestBoundOfUnknownKindIsZero: a kind the bound has no formula for
// bounds to zero at every cell — never pruned, so the exact evaluator
// still sees (and rejects) it — and the known kinds on either side of
// it fill exactly the slots they fill without it.
func TestBoundOfUnknownKindIsZero(t *testing.T) {
	l, cfg := models.AlexNet().Layers[1], hw.TestAcceleratorEDRAM()
	fillWith, cells, tilings, err := sched.BoundForTest(l, cfg, everyCellOptions(pattern.ID, pattern.Kind(97), pattern.WD))
	if err != nil {
		t.Fatal(err)
	}
	fillWithout, _, _, err := sched.BoundForTest(l, cfg, everyCellOptions(pattern.ID, pattern.WD))
	if err != nil {
		t.Fatal(err)
	}
	n := cells / 3
	got, want := make([]float64, cells), make([]float64, 2*n)
	for _, tl := range tilings {
		for j := range got {
			got[j] = math.NaN()
		}
		fillWith(tl, got)
		fillWithout(tl, want)
		for j, lb := range got {
			w := 0.0
			switch {
			case j < n:
				w = want[j]
			case j >= 2*n:
				w = want[j-n]
			}
			if lb != w {
				t.Fatalf("%v slot %d: bound %v, want %v", tl, j, lb, w)
			}
		}
	}
}

// FuzzBoundAdmissible is TestBoundIsAdmissibleAtEveryCell's property on
// random layer dimensions, stride, padding, groups, buffer capacity,
// tiling and kind, at every cell of the (kind, tiling).
func FuzzBoundAdmissible(f *testing.F) {
	f.Add(uint8(63), uint8(31), uint8(20), uint8(24), uint8(2), uint8(0), uint8(0), uint8(0), uint8(7), uint8(3), uint8(5), uint8(9), uint8(0), uint16(100))
	f.Add(uint8(95), uint8(63), uint8(40), uint8(40), uint8(0), uint8(1), uint8(0), uint8(1), uint8(31), uint8(15), uint8(2), uint8(2), uint8(1), uint16(2000))
	f.Add(uint8(15), uint8(15), uint8(30), uint8(30), uint8(4), uint8(3), uint8(2), uint8(0), uint8(3), uint8(3), uint8(1), uint8(1), uint8(2), uint16(5))
	f.Add(uint8(7), uint8(47), uint8(9), uint8(13), uint8(6), uint8(2), uint8(3), uint8(1), uint8(0), uint8(9), uint8(4), uint8(0), uint8(0), uint16(30))
	// Cells where a slip in the formula shows: blocked ID on a 1×1
	// stride-2 layer, whose halo stream undercuts din; a point whose
	// table differs from the mapping-indexed one; the second mapping.
	f.Add(uint8(95), uint8(63), uint8(40), uint8(40), uint8(0), uint8(1), uint8(0), uint8(73), uint8(31), uint8(15), uint8(2), uint8(2), uint8(24), uint16(2000))
	f.Add(uint8(7), uint8(0), uint8(9), uint8(13), uint8(6), uint8(2), uint8(64), uint8(1), uint8(0), uint8(9), uint8(4), uint8(57), uint8(0), uint16(30))
	f.Add(uint8(95), uint8(7), uint8(40), uint8(40), uint8(100), uint8(1), uint8(0), uint8(1), uint8(31), uint8(15), uint8(2), uint8(2), uint8(1), uint16(2000))
	f.Fuzz(func(t *testing.T, m, n, h, w, k, s, p, groups, tm, tn, tr, tc, kind uint8, buf uint16) {
		l := models.ConvLayer{
			Name: "fuzz",
			M:    1 + int(m)%96,
			N:    1 + int(n)%96,
			K:    1 + int(k)%7,
			S:    1 + int(s)%4,
		}
		l.P = int(p) % l.K
		l.H, l.L = max(1, l.K-2*l.P)+int(h)%48, max(1, l.K-2*l.P)+int(w)%48
		if groups%2 == 1 {
			l.M, l.N, l.Groups = 2*l.M, 2*l.N, 2
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("generated an invalid layer: %v", err)
		}
		e := l
		if l.Groups > 1 {
			e.M, e.N = l.M/l.Groups, l.N/l.Groups
		}
		tl := pattern.Tiling{
			Tm: 1 + int(tm)%e.M,
			Tn: 1 + int(tn)%e.N,
			Tr: 1 + int(tr)%l.R(),
			Tc: 1 + int(tc)%l.C(),
		}
		cfg := hw.TestAcceleratorEDRAM()
		cfg.BufferWords = 64 + 16*uint64(buf)
		opts := everyCellOptions(pattern.Kinds[int(kind)%len(pattern.Kinds)])
		fill, cells, _, err := sched.BoundForTest(l, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, "fuzz", l, cfg, opts, fill, make([]float64, cells), tl)
	})
}

package sched

import (
	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
)

// RaceEnabledForTest tells external test packages whether the race
// detector instruments this build.
const RaceEnabledForTest = raceEnabled

// LowerBoundForTest exposes the branch-and-bound admissible lower bound
// at the nominal-point, linear, row-major cell to external test packages
// (the randomized admissibility property tests live outside package
// sched to use internal/verify/gen, which imports sched).
func LowerBoundForTest(l models.ConvLayer, cfg hw.Config, k pattern.Kind, t pattern.Tiling) float64 {
	var b bound
	b.init(l, cfg, []pattern.Kind{k}, []energy.Table{cfg.BufferTech.Table()}, 1, nil, nil)
	var out [1]float64
	b.fill(t, out[:])
	return out[0]
}

// BoundForTest builds the lower bound layer l is explored with under
// opts — its pattern set, the backend's operating points under the
// layer's error budget, and the traversal and mapping axes — and returns
// its fill, the number of candidates fill writes per tiling, and the
// layer's admitted tilings in canonical order. Like a search's, the fill
// keeps its (Tm, Tn) prefix terms from one call to the next.
func BoundForTest(l models.ConvLayer, cfg hw.Config, opts Options) (fill func(pattern.Tiling, []float64), cells int, tilings []pattern.Tiling, err error) {
	_, pts, err := ResolveBackendForLayer(cfg, opts, l.Name)
	if err != nil {
		return nil, 0, nil, err
	}
	env, err := envFor(opts)
	if err != nil {
		return nil, 0, nil, err
	}
	b := new(bound)
	b.init(l, cfg, opts.Patterns, appendMappingTables(nil, pointTables(pts), env.maps), len(pts), env.travs, opts.Prefix)
	e := effectiveLayer(l)
	for _, t := range candidateTilings(l, cfg, opts) {
		if t.FitsCore(e, cfg) {
			tilings = append(tilings, t)
		}
	}
	return b.fill, len(opts.Patterns) * len(pts) * len(env.travs) * len(env.maps), tilings, nil
}

// CellEnergiesForTest prices one search cell exactly at the options'
// interval through evaluateCellInto — the operating point by index into
// the backend's admitted points, the traversal and mapping by index into
// the "rtc" and "all" axes (indices wrap) — and returns its total energy,
// the refresh-free energy E0 a memo frontier records for it, and whether
// it is feasible.
func CellEnergiesForTest(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config, opts Options,
	point, trav, mapping int) (e, e0 float64, feasible bool, err error) {
	bk, pts, err := ResolveBackendForLayer(cfg, opts, l.Name)
	if err != nil {
		return 0, 0, false, err
	}
	travs, err := ParseTraversalSpec("rtc")
	if err != nil {
		return 0, 0, false, err
	}
	maps, err := ParseMappingSpec("all")
	if err != nil {
		return 0, 0, false, err
	}
	var lp LayerPlan
	if err := evaluateCellInto(&lp, &l, k, t, &cfg, &opts, bk, &pts[point%len(pts)],
		travs[trav%len(travs)], maps[mapping%len(maps)]); err != nil {
		return 0, 0, false, err
	}
	return lp.Energy.Total(), refreshFree(lp.Energy), lp.Analysis.Feasible, nil
}

// CheckEnvelopeForTest builds layer l's interval envelope at the
// options' interval, as the memo publishes it, and holds it to the
// oracles at every piece's first nanosecond, midpoint and last
// nanosecond: pick on the build's untrimmed records and a memo-free
// exhaustive exploration. It returns the envelope's piece count.
func CheckEnvelopeForTest(l models.ConvLayer, cfg hw.Config, opts Options) (int, error) {
	f, c, err := buildEnvelope(l, cfg, opts)
	if err != nil {
		return 0, err
	}
	return len(f.win), c.check(&f, true)
}

// DedupForTest runs the in-compile dedup's shape table, sized to size
// slots, over the layers' memo keys under opts, and returns what the
// peek pass records for each layer: the earlier layer whose plan it
// repeats, or -1 for its shape's first layer.
func DedupForTest(layers []models.ConvLayer, opts Options, size int) []int {
	var frame [32]byte
	keys := make([]memoKey, len(layers))
	reps := make([]int, len(layers))
	var t shapeTable
	t.reset(size)
	for i := range layers {
		keys[i] = layerKey(&frame, &layers[i], &opts)
		reps[i] = t.firstOf(keys, i)
	}
	return reps
}

// SameShapeForTest reports whether a and b share a memo shape under
// opts: the identity the in-compile dedup compares layers by.
func SameShapeForTest(a, b models.ConvLayer, opts Options) bool {
	var frame [32]byte
	return layerKey(&frame, &a, &opts).shape == layerKey(&frame, &b, &opts).shape
}

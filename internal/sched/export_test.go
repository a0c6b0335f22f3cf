package sched

import (
	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// LowerBoundForTest exposes the branch-and-bound admissible lower bound
// to external test packages (the randomized admissibility property test
// lives outside package sched to use internal/verify/gen, which imports
// sched).
func LowerBoundForTest(l models.ConvLayer, cfg hw.Config, k pattern.Kind, t pattern.Tiling) float64 {
	tables := []energy.Table{cfg.BufferTech.Table()}
	return newBound(l, cfg, tables, 1, nil).lower(k, t, search.Cell{})
}

// CellEnergiesForTest prices one search cell exactly at the options'
// interval through evaluateCellInto — the operating point by index into
// the backend's admitted points, the traversal and mapping by index into
// the "rtc" and "all" axes (indices wrap) — and returns its total energy
// and the refresh-free energy E0 a memo frontier records for it.
func CellEnergiesForTest(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config, opts Options,
	point, trav, mapping int) (e, e0 float64, err error) {
	bk, pts, err := ResolveBackendForLayer(cfg, opts, l.Name)
	if err != nil {
		return 0, 0, err
	}
	travs, err := ParseTraversalSpec("rtc")
	if err != nil {
		return 0, 0, err
	}
	maps, err := ParseMappingSpec("all")
	if err != nil {
		return 0, 0, err
	}
	var lp LayerPlan
	if err := evaluateCellInto(&lp, &l, k, t, &cfg, &opts, bk, &pts[point%len(pts)],
		travs[trav%len(travs)], maps[mapping%len(maps)]); err != nil {
		return 0, 0, err
	}
	return lp.Energy.Total(), refreshFree(lp.Energy), nil
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

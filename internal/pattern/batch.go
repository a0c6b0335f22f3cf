package pattern

// Batch processing is an extension beyond the paper, which evaluates
// single-image inference. Processing a batch of B images back to back
// changes RANA's trade-off: keeping the layer's weights resident in the
// buffer across the batch amortizes their off-chip traffic by B, but the
// weights then live for the whole batch — far beyond any tolerable
// retention time — so their banks must refresh. The paper's refresh-
// optimized controller makes exactly that cheap (only the weight banks
// refresh), which is what the ext3 experiment quantifies.

import (
	"fmt"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
)

// AnalyzeBatch characterizes B back-to-back executions of one layer with
// the batch loop outermost. When the layer's full weight set fits in the
// buffer alongside the pattern's storage requirement, weights are fetched
// from DDR once for the whole batch and stay resident (their lifetime
// stretches to the batch execution time); otherwise every image reloads
// them and the single-image analysis simply scales.
func AnalyzeBatch(l models.ConvLayer, k Kind, t Tiling, cfg hw.Config, batch int) (Analysis, error) {
	if batch <= 0 {
		return Analysis{}, fmt.Errorf("pattern: non-positive batch %d", batch)
	}
	a, err := Analyze(l, k, t, cfg)
	if err != nil {
		return Analysis{}, err
	}
	if batch == 1 {
		return a, nil
	}
	b := uint64(batch)

	a.MACs *= b
	a.Cycles *= b
	a.ExecTime *= time.Duration(batch)
	a.BufferTraffic = scaleStorage(a.BufferTraffic, b)
	a.DDRTraffic.Inputs *= b
	a.DDRTraffic.Outputs *= b

	dw := l.WeightWords()
	if a.BufferStorage.Total()+dw <= cfg.BufferWords {
		// Weight-resident batching: one DDR fetch for the whole batch.
		// The resident set grows by the full weights, and their lifetime
		// spans the batch.
		a.BufferStorage.Weights += dw
		a.Lifetimes.Weight = a.ExecTime
		// a.DDRTraffic.Weights stays at the single-image value.
	} else {
		a.DDRTraffic.Weights *= b
		// Per-image residency and lifetimes are unchanged.
	}
	a.FitsBuffer = a.BufferStorage.Total() <= cfg.BufferWords
	return a, nil
}

// MustAnalyzeBatch is AnalyzeBatch for inputs known valid by
// construction; it panics on error.
func MustAnalyzeBatch(l models.ConvLayer, k Kind, t Tiling, cfg hw.Config, batch int) Analysis {
	a, err := AnalyzeBatch(l, k, t, cfg, batch)
	if err != nil {
		panic(err)
	}
	return a
}

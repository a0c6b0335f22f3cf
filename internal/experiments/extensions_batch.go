package experiments

// Extension 3: batch processing (see internal/pattern/batch.go). The
// paper evaluates single-image inference; batching lets weights stay
// resident across images, trading off-chip weight traffic against
// weight-bank refresh — a trade only the refresh-optimized controller
// makes cheap.

import (
	"fmt"
	"io"

	"rana/internal/energy"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/platform"
)

// Ext3Row is one (model, batch) point: per-image system energy of
// weight-resident batching under RANA*(E-5), normalized to batch 1.
type Ext3Row struct {
	Model string
	Batch int
	// PerImage is the per-image system energy relative to batch 1.
	PerImage float64
	// RefreshShare is refresh's share of the batched total.
	RefreshShare float64
	// WeightDDRSaved is the fraction of weight DDR traffic amortized away.
	WeightDDRSaved float64
}

// Ext3Batches is the swept batch ladder.
var Ext3Batches = []int{1, 2, 4, 8, 16}

// Extension3Batch evaluates weight-resident batching per benchmark: each
// layer keeps the RANA*(E-5) schedule's pattern and tiling, re-analyzed
// at batch B with refresh re-accounted through the optimized controller.
func Extension3Batch() ([]Ext3Row, error) {
	p := platform.Test()
	d := platform.RANAStarE5()
	interval := d.Interval(p.Dist)
	var rows []Ext3Row
	for _, n := range models.Benchmarks() {
		r, err := p.Evaluate(d, n)
		if err != nil {
			return nil, err
		}
		cfg := r.Plan.Config
		var base float64
		for _, batch := range Ext3Batches {
			var counts energy.Counts
			var wDDR, wDDRNaive uint64
			for i, lp := range r.Plan.Layers {
				l := n.Layers[i]
				a := pattern.MustAnalyzeBatch(l, lp.Analysis.Pattern, lp.Analysis.Tiling, cfg, batch)
				alloc := memctrl.Allocate(a.BufferStorage, cfg.BankWords, cfg.Banks())
				needs := memctrl.NeedsFor(a.Lifetimes, interval)
				counts.Add(energy.Counts{
					MACs:           a.MACs,
					BufferAccesses: a.BufferTraffic.Total(),
					Refreshes: memctrl.RefreshWords(memctrl.RefreshOptimized{},
						a.ExecTime, interval, alloc, needs, cfg.Banks(), cfg.BankWords),
					DDRAccesses: a.DDRTraffic.Total(),
				})
				wDDR += a.DDRTraffic.Weights
				wDDRNaive += lp.Analysis.DDRTraffic.Weights * uint64(batch)
			}
			e := energy.System(counts, cfg.BufferTech)
			perImage := e.Total() / float64(batch)
			if base == 0 {
				base = perImage
			}
			rows = append(rows, Ext3Row{
				Model: n.Name, Batch: batch,
				PerImage:       perImage / base,
				RefreshShare:   e.Refresh / e.Total(),
				WeightDDRSaved: 1 - float64(wDDR)/float64(wDDRNaive),
			})
		}
	}
	return rows, nil
}

func init() {
	register(Experiment{
		ID:    "ext3",
		Title: "Extension: weight-resident batch processing",
		Data:  func() (any, error) { return Extension3Batch() },
		Run: func(w io.Writer) error {
			rows, err := Extension3Batch()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %6s %12s %14s %16s\n", "Model", "batch", "E/image", "refresh share", "weight DDR saved")
			for _, r := range rows {
				if _, err := fmt.Fprintf(w, "%-12s %6d %12.3f %13.2f%% %15.1f%%\n",
					r.Model, r.Batch, r.PerImage, r.RefreshShare*100, r.WeightDDRSaved*100); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

package experiments

// Extension experiments beyond the paper (DESIGN.md §6): design points
// the paper motivates but does not evaluate.

import (
	"fmt"
	"io"
	"time"

	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/platform"
	"rana/internal/retention"
	"rana/internal/sched"
)

// Ext1Row compares refresh programming policies on one benchmark under
// the RANA*(E-5) schedule: the paper's uniform tolerable interval, a
// differential controller protecting weights at the conservative 45 µs,
// and the fully conservative uniform 45 µs.
type Ext1Row struct {
	Model string
	// Refresh word counts per policy.
	Uniform734, Differential, Uniform45 uint64
}

// Extension1DifferentialRefresh quantifies what per-data-type refresh
// rates cost: weight banks at 45 µs (no reliance on trained tolerance
// for weights) while activations run at 734 µs.
func Extension1DifferentialRefresh() ([]Ext1Row, error) {
	p := platform.Test()
	var rows []Ext1Row
	for _, n := range models.Benchmarks() {
		r, err := p.Evaluate(platform.RANAStarE5(), n)
		if err != nil {
			return nil, err
		}
		row := Ext1Row{Model: n.Name}
		diffIv := memctrl.Intervals{
			Inputs:  retention.TolerableRetentionTime,
			Outputs: retention.TolerableRetentionTime,
			Weights: retention.TypicalRetentionTime,
		}
		for _, lp := range r.Plan.Layers {
			a := lp.Analysis
			bw := r.Plan.Config.BankWords
			row.Uniform734 += memctrl.DifferentialRefreshWords(a.ExecTime,
				memctrl.Uniform(retention.TolerableRetentionTime), lp.Alloc, a.Lifetimes, bw)
			row.Differential += memctrl.DifferentialRefreshWords(a.ExecTime,
				diffIv, lp.Alloc, a.Lifetimes, bw)
			row.Uniform45 += memctrl.DifferentialRefreshWords(a.ExecTime,
				memctrl.Uniform(retention.TypicalRetentionTime), lp.Alloc, a.Lifetimes, bw)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Ext2Row is one guard-band setting's outcome on a benchmark.
type Ext2Row struct {
	Model   string
	Guard   float64
	Total   float64 // system energy normalized to guard=1.0
	Refresh float64
}

// Extension2GuardBand sweeps the retention guard band: how much energy
// the safety margin costs. Guard 1.0 trusts lifetimes right up to the
// interval; smaller guards force refresh on marginal layers.
func Extension2GuardBand() ([]Ext2Row, error) {
	p := platform.Test()
	d := platform.RANAStarE5()
	cfg := d.Apply(p.Base)
	opts := p.Options(d)
	guards := []float64{1.0, 0.9, 0.7, 0.5}
	var rows []Ext2Row
	for _, n := range models.Benchmarks() {
		var base float64
		for _, g := range guards {
			opts.RetentionGuard = g
			plan, err := sched.Schedule(n, cfg, opts)
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = plan.Energy.Total()
			}
			rows = append(rows, Ext2Row{
				Model: n.Name, Guard: g,
				Total:   plan.Energy.Total() / base,
				Refresh: plan.Energy.Refresh / base,
			})
		}
	}
	return rows, nil
}

func init() {
	register(Experiment{
		ID:    "ext1",
		Data:  func() (any, error) { return Extension1DifferentialRefresh() },
		Title: "Extension: differential per-data-type refresh rates",
		Run: func(w io.Writer) error {
			rows, err := Extension1DifferentialRefresh()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %16s %16s %16s\n", "Model", "uniform 734us", "diff (w@45us)", "uniform 45us")
			for _, r := range rows {
				if _, err := fmt.Fprintf(w, "%-12s %16d %16d %16d\n",
					r.Model, r.Uniform734, r.Differential, r.Uniform45); err != nil {
					return err
				}
			}
			fmt.Fprintln(w, "refresh word counts under the RANA*(E-5) schedule; the differential")
			fmt.Fprintln(w, "column protects weights without trained tolerance at a fraction of the")
			fmt.Fprintln(w, "fully conservative cost")
			return nil
		},
	})
	register(Experiment{
		ID:    "ext2",
		Data:  func() (any, error) { return Extension2GuardBand() },
		Title: "Extension: retention guard-band sensitivity",
		Run: func(w io.Writer) error {
			rows, err := Extension2GuardBand()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %8s %10s %10s\n", "Model", "guard", "total", "refresh")
			for _, r := range rows {
				if _, err := fmt.Fprintf(w, "%-12s %8.2f %10.4f %10.4f\n",
					r.Model, r.Guard, r.Total, r.Refresh); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

var _ = time.Microsecond

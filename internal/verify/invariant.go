package verify

import (
	"fmt"
	"time"

	"rana/internal/energy"
	"rana/internal/exec"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/sched"
)

// CheckPlan validates every structural invariant of a compiled schedule:
//
//   - every layer's chosen candidate is feasible and its tiling satisfies
//     the core local-storage constraints;
//   - bank allocations are non-negative and fit within cfg.Banks(); the
//     expanded per-bank refresh flags agree with the controller's
//     per-pulse arithmetic (the allocation ranges are disjoint by
//     construction — the flag expansion walks them in order);
//   - refresh flags are cleared exactly when the datum's lifetime clears
//     the guarded interval (RetentionGuard × RefreshInterval), and the
//     layer's refresh-word count re-derives from the controller;
//   - operation counts match the layer's analysis and the energy
//     breakdown re-prices from them, with all components non-negative;
//   - no data lifetime outlives the layer's execution window;
//   - plan totals conserve the per-layer counts, energy and exec time.
//
// It returns every violation found; an empty slice means the plan is
// internally consistent.
func CheckPlan(p *sched.Plan, tol Tolerances) []Violation {
	var vs []Violation
	add := func(layer, invariant, format string, args ...any) {
		vs = append(vs, Violation{Layer: layer, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}
	if p == nil {
		return []Violation{{Invariant: "plan", Detail: "nil plan"}}
	}
	if len(p.Layers) != len(p.Network.Layers) {
		add("", "plan", "%d layer plans for %d layers", len(p.Layers), len(p.Network.Layers))
		return vs
	}
	cfg := p.Config
	opts := p.Options
	banks, bankWords := cfg.Banks(), cfg.BankWords
	bk, _, err := sched.ResolveBackend(cfg, opts)
	if err != nil {
		add("", "backend", "plan options name an unresolvable backend: %v", err)
		return vs
	}
	refreshing := opts.Controller != nil && bk.Refreshes()

	var totals energy.Counts
	var totalEnergy energy.Breakdown
	var totalExec time.Duration
	for i := range p.Layers {
		lp := p.Layers[i]
		l := p.Network.Layers[i]
		a := lp.Analysis

		if !a.Feasible {
			add(l.Name, "scheduled-infeasible", "chosen candidate %v %v is infeasible", a.Pattern, a.Tiling)
		}
		if opts.FixedTiling == nil && !a.Tiling.FitsCore(effectiveLayer(l), cfg) {
			add(l.Name, "tiling-fits-core", "tiling %v exceeds core local storage", a.Tiling)
		}

		// Bank allocation.
		if lp.Alloc.InputBanks < 0 || lp.Alloc.OutputBanks < 0 || lp.Alloc.WeightBanks < 0 {
			add(l.Name, "alloc-nonnegative", "allocation %+v", lp.Alloc)
		}
		if lp.Alloc.Total() > banks {
			add(l.Name, "alloc-within-banks", "allocation %+v exceeds %d banks", lp.Alloc, banks)
		}

		// The layer's operating point: the empty spelling is the nominal
		// corner (the wire encoding normalizes it away).
		pt, ok := mem.PointByName(bk, lp.Point)
		if !ok {
			add(l.Name, "operating-point", "plan names unknown point %q on backend %q", lp.Point, bk.Name())
			continue
		}

		// Refresh flags vs guarded lifetimes, and the γ re-derivation.
		// Reduced-voltage points shrink the retention curve, and the
		// scheduler shrinks the refresh interval with it.
		if refreshing {
			interval := opts.RefreshInterval
			if pt.RetentionScale != 1 {
				interval = time.Duration(float64(interval) * pt.RetentionScale)
			}
			guarded := time.Duration(float64(interval) * opts.Guard())
			for _, c := range []struct {
				name string
				life time.Duration
				need bool
			}{
				{"inputs", a.Lifetimes.Input, lp.Needs.Inputs},
				{"outputs", a.Lifetimes.Output, lp.Needs.Outputs},
				{"weights", a.Lifetimes.Weight, lp.Needs.Weights},
			} {
				if want := c.life >= guarded; c.need != want {
					add(l.Name, "refresh-flag/"+c.name,
						"need=%v but lifetime %v vs guarded interval %v", c.need, c.life, guarded)
				}
			}
			flags := lp.RefreshFlags(banks)
			flagged := 0
			for _, f := range flags {
				if f {
					flagged++
				}
			}
			if _, optimized := opts.Controller.(memctrl.RefreshOptimized); optimized && lp.Alloc.Total() <= banks {
				perPulse := opts.Controller.WordsPerPulse(lp.Alloc, lp.Needs, banks, bankWords)
				if uint64(flagged)*uint64(bankWords) != perPulse {
					add(l.Name, "flags-match-controller", "%d flagged banks × %d words != per-pulse %d",
						flagged, bankWords, perPulse)
				}
			}
			want := memctrl.RefreshWords(opts.Controller, a.ExecTime, interval,
				lp.Alloc, lp.Needs, banks, bankWords)
			if lp.Counts.Refreshes != want {
				add(l.Name, "refresh-count", "counted %d, re-derived %d", lp.Counts.Refreshes, want)
			}
		} else if lp.Counts.Refreshes != 0 || lp.Needs.Any() {
			add(l.Name, "refresh-without-controller", "refreshes=%d needs=%+v", lp.Counts.Refreshes, lp.Needs)
		}

		// Counts must match the analysis and the layer's own arithmetic.
		if lp.Counts.MACs != l.MACs() {
			add(l.Name, "counts-macs", "counted %d, layer has %d", lp.Counts.MACs, l.MACs())
		}
		if lp.Counts.BufferAccesses != a.BufferTraffic.Total() {
			add(l.Name, "counts-buffer", "counted %d, analysis %d", lp.Counts.BufferAccesses, a.BufferTraffic.Total())
		}
		if lp.Counts.DDRAccesses != a.DDRTraffic.Total() {
			add(l.Name, "counts-ddr", "counted %d, analysis %d", lp.Counts.DDRAccesses, a.DDRTraffic.Total())
		}
		if lp.Counts.BufferWrites != a.BufferWrites {
			add(l.Name, "counts-buffer-writes", "counted %d, analysis %d", lp.Counts.BufferWrites, a.BufferWrites)
		}

		// The layer's data mapping: the empty spelling is the row-major
		// identity (normalized away on the wire), anything else must name
		// a registered policy — its scales enter the re-price below.
		mp, ok := sched.MappingByName(lp.Mapping)
		if !ok {
			add(l.Name, "mapping-policy", "plan names unknown mapping %q", lp.Mapping)
			continue
		}
		// The plan's traversal spelling must agree with the analysis it
		// carries: the analysis is what the lifetimes (and therefore the
		// refresh decisions above) were derived from.
		wantTrav := ""
		if !a.Traversal.IsLinear() {
			wantTrav = a.Traversal.String()
		}
		if lp.Traversal != wantTrav {
			add(l.Name, "traversal-consistent", "plan says %q, analysis ran %q", lp.Traversal, a.Traversal)
		}

		// Energy re-prices from the counts — against the operating point's
		// own table under the layer's mapping policy — with non-negative
		// components.
		priced := energy.SystemTable(lp.Counts, mp.Apply(pt.Table()))
		if lp.Energy != priced {
			add(l.Name, "energy-reprice", "stored %+v, re-priced %+v", lp.Energy, priced)
		}
		if lp.Energy.Computing < 0 || lp.Energy.BufferAccess < 0 || lp.Energy.Refresh < 0 || lp.Energy.OffChip < 0 || lp.Energy.Wear < 0 {
			add(l.Name, "energy-nonnegative", "%+v", lp.Energy)
		}

		// No lifetime outlives the execution window.
		if m := a.Lifetimes.Max(); m > a.ExecTime+tol.Duration {
			add(l.Name, "lifetime-exceeds-exec", "max lifetime %v > exec %v", m, a.ExecTime)
		}

		totals.Add(lp.Counts)
		totalEnergy.Add(lp.Energy)
		totalExec += a.ExecTime
	}

	// Conservation across Plan.Totals.
	if totals != p.Totals {
		add("", "totals-conserved", "sum %+v, plan %+v", totals, p.Totals)
	}
	if !tol.closeEnergy(totalEnergy.Total(), p.Energy.Total()) {
		add("", "energy-conserved", "sum %.6g pJ, plan %.6g pJ", totalEnergy.Total(), p.Energy.Total())
	}
	if totalExec != p.ExecTime {
		add("", "exec-time-conserved", "sum %v, plan %v", totalExec, p.ExecTime)
	}
	return vs
}

// effectiveLayer mirrors the scheduler's grouped-convolution view: the
// core constraints see one group's sub-problem.
func effectiveLayer(l models.ConvLayer) models.ConvLayer {
	if l.Groups <= 1 {
		return l
	}
	l.N /= l.Groups
	l.M /= l.Groups
	l.Groups = 1
	return l
}

// RunObserver is an exec.Observer enforcing the engine's runtime
// invariants: layers execute in order, the model clock is monotonic and
// gap-free across chained RunFunctionalAt calls, and the refresh counter
// never decreases. Construct with NewRunObserver.
type RunObserver struct {
	tol         Tolerances
	nextIndex   int
	clock       time.Duration
	refreshWord uint64
}

var _ exec.Observer = (*RunObserver)(nil)

// NewRunObserver returns an observer with the default tolerances.
func NewRunObserver() *RunObserver {
	return &RunObserver{tol: DefaultTolerances()}
}

// LayerExecuted implements exec.Observer.
func (o *RunObserver) LayerExecuted(index int, layer models.ConvLayer, start, end time.Duration, refreshWords uint64) error {
	if index != o.nextIndex {
		return fmt.Errorf("layer %d (%s) executed out of order, expected %d", index, layer.Name, o.nextIndex)
	}
	if start != o.clock {
		return fmt.Errorf("layer %d (%s) starts at %v, model clock is at %v", index, layer.Name, start, o.clock)
	}
	if end < start {
		return fmt.Errorf("layer %d (%s) clock ran backwards: %v -> %v", index, layer.Name, start, end)
	}
	if refreshWords < o.refreshWord {
		return fmt.Errorf("layer %d (%s) refresh counter decreased: %d -> %d",
			index, layer.Name, o.refreshWord, refreshWords)
	}
	o.nextIndex = index + 1
	o.clock = end
	o.refreshWord = refreshWords
	return nil
}

// CheckReport validates a finished execution report: the measured counts
// must re-price to the reported energy and every component must be
// non-negative.
func CheckReport(r *exec.Report, tech energy.BufferTech, tol Tolerances) []Violation {
	var vs []Violation
	if r == nil {
		return []Violation{{Invariant: "report", Detail: "nil report"}}
	}
	priced := energy.System(r.Counts, tech)
	if !tol.closeEnergy(priced.Total(), r.Energy.Total()) {
		vs = append(vs, Violation{Invariant: "report-energy-reprice",
			Detail: fmt.Sprintf("counts price to %.6g pJ, report says %.6g pJ", priced.Total(), r.Energy.Total())})
	}
	if r.Energy.Computing < 0 || r.Energy.BufferAccess < 0 || r.Energy.Refresh < 0 || r.Energy.OffChip < 0 {
		vs = append(vs, Violation{Invariant: "report-energy-nonnegative",
			Detail: fmt.Sprintf("%+v", r.Energy)})
	}
	if r.ExecTime < 0 {
		vs = append(vs, Violation{Invariant: "report-exec-time", Detail: r.ExecTime.String()})
	}
	return vs
}

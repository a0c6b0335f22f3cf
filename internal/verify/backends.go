package verify

// The memory-backend differential oracle. The scheduler prices plans
// through pluggable technology backends (internal/mem) with discrete
// operating points as a search axis. Every backend in the registry, and
// every admissible operating point, must yield plans that satisfy the
// full invariant suite and never report less energy than the admissible
// lower bound admits at the chosen point — an approximate point that
// "won" by pricing below its own bound would mean the branch-and-bound
// is unsound on that backend. (That the explicit default backend name is
// the legacy path byte for byte is a spelling variant of the
// differential matrix.) CompareFunctional closes the loop end to end on
// one small layer: each point's own failure injector, refreshed at the
// point's scaled conventional rate, reproduces the perfect-memory
// reference word for word.

import (
	"fmt"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/retention"
	"rana/internal/sched"
)

// CompareBackends schedules one network across the whole backend
// registry and reports every disagreement:
//
//   - every buffer backend, searched over its admissible operating
//     points, must produce a plan that passes CheckPlan and whose
//     per-layer energies are at least the admissible lower bound at the
//     layer's chosen (pattern, tiling, point);
//
//   - every non-nominal operating point within the error budget, pinned,
//     must do the same, and its chosen candidates must still agree with
//     the cycle walker (the analytical↔walker differential is
//     technology-independent and must stay that way).
//
// opts.Backend and opts.OperatingPoint are overridden per run;
// everything else is compared as given. The report's notes list the
// backend specs scheduled ("edram", "approx-dram@v0.8", ...), in sweep
// order.
func CompareBackends(net models.Network, cfg hw.Config, opts sched.Options, tol Tolerances) (*Report, error) {
	r := &Report{Subject: net.Name + " backends"}

	withBackend := func(backend, point string) sched.Options {
		o := opts
		o.Backend = backend
		o.OperatingPoint = point
		return o
	}

	// checkSpec schedules under one (backend, pinned point) and runs the
	// invariant suite plus the per-layer bound check. walker additionally
	// cross-checks each chosen candidate against the cycle walker.
	checkSpec := func(spec string, o sched.Options, walker bool) error {
		r.Notes = append(r.Notes, spec)
		plan, err := sched.Schedule(net, cfg, o)
		if err != nil {
			r.diverge("backend/schedule/"+spec, "schedulable", spec, "ok", err)
			return nil
		}
		for _, v := range CheckPlan(plan, tol) {
			r.diverge("backend/invariant/"+spec, "invariant", spec, v.Invariant, v.Detail)
		}
		for i, lp := range plan.Layers {
			l := net.Layers[i]
			po := o
			po.OperatingPoint = lp.Point
			if po.OperatingPoint == "" {
				po.OperatingPoint = mem.Nominal
			}
			lb, err := sched.LowerBound(l, cfg, po, lp.Analysis.Pattern, lp.Analysis.Tiling)
			if err != nil {
				return fmt.Errorf("verify: bounding %s under %s: %w", l.Name, spec, err)
			}
			if got := lp.Energy.Total(); got < lb {
				r.diverge("backend/bound/"+spec+"/"+l.Name, "bound", spec,
					fmt.Sprintf(">= %g pJ", lb), got)
			}
			if walker {
				if lr := CompareLayer(l, lp.Analysis.Pattern, lp.Analysis.Tiling, cfg, tol); !lr.OK() {
					for _, d := range lr.Divergences {
						r.diverge("backend/walker/"+spec+"/"+l.Name, d.Models[0], d.Models[1], d.Want, d.Got)
					}
				}
			}
		}
		return nil
	}

	budget := opts.ErrorBudget
	if budget <= 0 {
		budget = retention.TolerableFailureRate
	}
	for _, bk := range mem.Buffers() {
		name := bk.Name()
		// The unpinned search over the backend's admissible points.
		if err := checkSpec(name, withBackend(name, ""), false); err != nil {
			return nil, err
		}
		// Every admissible non-nominal point, pinned — the end-to-end
		// path a degraded or operator-pinned request takes.
		for _, p := range bk.Points() {
			if p.Name == mem.Nominal || p.BitErrorRate > budget {
				continue
			}
			if err := checkSpec(name+"@"+p.Name, withBackend(name, p.Name), true); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

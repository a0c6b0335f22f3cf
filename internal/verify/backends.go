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
// differential matrix.)
//
// CompareBackendFunctional closes the loop end to end on one small
// layer: the backend's own failure injector (its functional buffer,
// built at a non-default operating point with the scaled retention
// curve) must agree with the analytical timing model and, refreshed at
// the point's scaled conventional rate, reproduce the perfect-memory
// reference word-for-word.

import (
	"fmt"
	"time"

	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sim"
	"rana/internal/verify/gen"
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

// CompareBackendFunctional executes one small ungrouped layer word by
// word through a backend's own functional buffer at the spec'd
// operating point ("backend" or "backend@point") and checks the outcome
// against the other models: modeled execution time must equal the
// in-bounds MAC count at the array's throughput; for refreshing
// backends the issued refresh words must equal the tick model's
// prediction at the point's scaled interval; and — refreshed at the
// point's scaled conventional (weakest-cell) rate — the output must be
// word-exact against the perfect-memory reference. The layer's working
// set must fit the configured buffer.
func CompareBackendFunctional(spec string, l models.ConvLayer, cfg hw.Config, seed uint64, tol Tolerances) (*Report, error) {
	bk, pt, err := mem.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if bk.Role() != mem.RoleBuffer {
		return nil, fmt.Errorf("verify: backend %q is not a buffer technology", bk.Name())
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	r := &Report{Subject: fmt.Sprintf("%s functional %s", spec, l.Name)}
	banks, bankWords := cfg.Banks(), cfg.BankWords
	din, dw, dout := int(l.InputWords()), int(l.WeightWords()), int(l.OutputWords())
	if din+dw+dout > banks*bankWords {
		return nil, fmt.Errorf("verify: layer needs %d words, buffer has %d", din+dw+dout, banks*bankWords)
	}

	buf, err := bk.NewBuffer(banks, bankWords, seed, pt)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	// Refreshing backends run the real issuer at the point's scaled
	// conventional rate — the weakest surviving cell of the scaled
	// retention curve sets the no-error refresh interval, exactly as the
	// paper's 45 µs does at nominal.
	used := (din + dw + dout + bankWords - 1) / bankWords
	refresher, div, err := pointRefresher(bk, buf, cfg, pt, used)
	if err != nil {
		return nil, err
	}

	g := gen.New(seed)
	ins := g.Words(din)
	ws := g.Words(dw)
	res, err := sim.RunFunctional(l, fixed.Q88, ins, ws, buf, refresher, cfg.PEs(), cfg.FrequencyHz)
	if err != nil {
		return nil, err
	}

	// Execution time: the functional clock advances one cycle per PEs()
	// in-bounds MACs, regardless of the memory technology.
	cycles := inBoundsMACs(l) / uint64(cfg.PEs())
	want := time.Duration(float64(cycles) / cfg.FrequencyHz * float64(time.Second))
	if !tol.closeDur(res.ExecTime, want) {
		r.diverge("backend-functional/exec-time", "analytical", spec, want, res.ExecTime)
	}

	// Refresh words: the issuer must have fired exactly the tick-model
	// prediction over the execution span.
	if refresher != nil {
		predicted := memctrl.Pulses(res.ExecTime, div.Period()) * uint64(used) * uint64(bankWords)
		if res.RefreshWords != predicted {
			r.diverge("backend-functional/refresh-words", "tick", spec, predicted, res.RefreshWords)
		}
	}

	// Correctness: at (or below) the scaled conventional rate — or on a
	// non-decaying technology — the buffered execution must reproduce
	// the perfect-memory reference exactly.
	if res.WordErrors != 0 {
		r.diverge("backend-functional/word-errors", "reference", spec, 0, res.WordErrors)
	}
	return r, nil
}

// pointRefresher builds the real refresh machinery (divider + issuer
// with the first used banks flagged) for a refreshing backend's buffer,
// at the operating point's scaled conventional interval. Non-refreshing
// backends get (nil, nil, nil).
func pointRefresher(bk mem.Backend, buf mem.Buffer, cfg hw.Config, pt mem.OperatingPoint, used int) (*sim.Refresher, *memctrl.Divider, error) {
	if !bk.Refreshes() {
		return nil, nil, nil
	}
	target, ok := buf.(memctrl.BankRefresher)
	if !ok {
		return nil, nil, fmt.Errorf("verify: refreshing backend %q built a non-refreshable buffer %T", bk.Name(), buf)
	}
	scale := pt.RetentionScale
	if scale <= 0 {
		scale = 1
	}
	interval := time.Duration(float64(retention.TypicalRetentionTime) * scale)
	div, err := memctrl.NewDivider(cfg.FrequencyHz, interval)
	if err != nil {
		return nil, nil, err
	}
	banks := cfg.Banks()
	issuer, err := memctrl.NewIssuer(div, banks)
	if err != nil {
		return nil, nil, err
	}
	flags := make([]bool, banks)
	for i := 0; i < used && i < banks; i++ {
		flags[i] = true
	}
	if err := issuer.SetFlags(flags); err != nil {
		return nil, nil, err
	}
	return &sim.Refresher{Issuer: issuer, Target: target}, div, nil
}

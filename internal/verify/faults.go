package verify

// The fault-injection differential oracle. The admission pipeline claims
// that every operating point the scheduler admits keeps accuracy within
// the declared error budget, and that the masks the fault engine derives
// from a backend's failure model are reproducible. Neither claim is
// argued here — both are *checked*, end to end:
//
//   - admission soundness, twice over: the calibrated per-layer
//     resilience curves must accept every admitted point's raw bit-error
//     rate at every layer position, and the empirical oracle (the demo
//     CNN, pretrained once, evaluated under rate-matched injection on
//     the real nn forward pass) must stay within its accuracy budget at
//     that rate;
//
//   - rejection soundness (the negative oracle): every point whose rate
//     exceeds the uniform budget must fail to schedule, and — with the
//     uniform budget deliberately loosened to 1 — the per-layer budgets
//     alone must still reject it, naming the offending layer;
//
//   - reproducibility, literally: the per-layer masks derived from
//     (backend, point, plan) under one seed must regenerate
//     byte-identically, and the empirical accuracy probe must return
//     bit-identical floats on a same-seed rerun;
//
//   - plan stability: attaching the per-layer budgets derived at the
//     default constraint must leave default-path plan bytes untouched.
//
// CompareFunctional with a positive fault rate closes the storage loop:
// a mask overlaid on a backend's own functional buffer (fault.Wrap) must
// corrupt exactly the words the mask names — the simulator's word-error
// count equals the mask's distinct-word count, no more, no less.

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"rana/internal/core"
	"rana/internal/fault"
	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/training"
)

// maskWindow caps the per-layer mask extent: flip statistics are
// position-independent, so a window over the region prefix checks the
// derivation without drawing millions of bits for the large layers.
const maskWindow = 4096

// DefaultOracleConstraint is the relative-accuracy floor the empirical
// oracle enforces. It is looser than the calibrated Stage 1 constraint
// because the demo CNN is evaluated on a small synthetic test set whose
// single-trial accuracy is quantized to 1/len(test) steps.
const DefaultOracleConstraint = 0.95

// FaultOracle is the empirical half of the fault differential: the
// retention-aware training method's pretrained demo CNN, probed under
// rate-matched bit-level injection. Admitted bit-error rates sit far
// below what even the unadapted model tolerates, so pretraining once is
// enough — no per-rate retraining, which keeps the oracle CI-speed.
type FaultOracle struct {
	// Constraint is the minimum relative accuracy an admitted rate must
	// keep (DefaultOracleConstraint unless overridden).
	Constraint float64
	// Trials averages the accuracy probe over independent error
	// patterns.
	Trials int

	method *training.Method
	cache  map[float64]oracleProbe
}

// oracleProbe is one cached accuracy measurement.
type oracleProbe struct {
	rel float64
	// deterministic reports whether a same-seed rerun reproduced the
	// measurement bit for bit.
	deterministic bool
}

// NewFaultOracle pretrains the demo model once (cfg and nSamples as in
// training.NewMethod) and returns the bound oracle.
func NewFaultOracle(cfg training.Config, nSamples int) *FaultOracle {
	return &FaultOracle{
		Constraint: DefaultOracleConstraint,
		Trials:     3,
		method:     training.NewMethod(cfg, nSamples),
		cache:      map[float64]oracleProbe{},
	}
}

// Baseline is the clean fixed-point accuracy the probes are relative to.
func (o *FaultOracle) Baseline() float64 { return o.method.Baseline() }

// Relative measures the pretrained model's relative accuracy under a
// uniform bit-error rate, running the probe twice to certify that a
// same-seed rerun is bit-identical. Results are cached per rate.
func (o *FaultOracle) Relative(ber float64) (rel float64, deterministic bool) {
	if p, ok := o.cache[ber]; ok {
		return p.rel, p.deterministic
	}
	trials := o.Trials
	if trials < 1 {
		trials = 1
	}
	a := o.method.EvaluatePretrained(ber, trials)
	b := o.method.EvaluatePretrained(ber, trials)
	p := oracleProbe{deterministic: math.Float64bits(a) == math.Float64bits(b)}
	if base := o.method.Baseline(); base > 0 {
		p.rel = a / base
	}
	o.cache[ber] = p
	return p.rel, p.deterministic
}

// CompareFaults runs the fault-injection differential for one network:
// derives the per-layer budgets at the constraint (<= 0 selects Stage
// 1's paper-reproducing core.DefaultAccuracyConstraint), then checks plan-byte stability, admission
// of every in-budget operating point (calibrated curves per layer, the
// empirical oracle per point, mask reproducibility per layer) and
// rejection of every over-budget point, including the per-layer-only
// variant. opts.Backend, opts.OperatingPoint and opts.LayerBudgets are
// overridden per run; everything else is compared as given. A nil
// oracle skips the empirical probes (the structural checks still run).
// The report's notes list the operating points exercised, in sweep
// order; negative-oracle rejections carry a "!" suffix.
func CompareFaults(net models.Network, cfg hw.Config, opts sched.Options, oracle *FaultOracle,
	constraint float64, seed uint64) (*Report, error) {
	if constraint <= 0 {
		constraint = core.DefaultAccuracyConstraint
	}
	r := &Report{Subject: net.Name + " faults"}

	budgets, err := core.LayerBudgets(net, constraint, training.PaperRates)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	maxBudget := 0.0
	for _, b := range budgets {
		if b > maxBudget {
			maxBudget = b
		}
	}

	withFaults := func(backend, point string) sched.Options {
		o := opts
		o.Backend = backend
		o.OperatingPoint = point
		o.LayerBudgets = budgets
		return o
	}

	// Plan stability: per-layer budgets derived at the default
	// constraint never tighten below the uniform budget on the default
	// path, so attaching them must not move a single plan byte.
	plain, plainErr := sched.Schedule(net, cfg, opts)
	budgeted := opts
	budgeted.LayerBudgets = budgets
	withB, withBErr := sched.Schedule(net, cfg, budgeted)
	if (plainErr == nil) != (withBErr == nil) {
		r.diverge("fault/budget-error", "plain", "budgeted", errString(plainErr), errString(withBErr))
		return r, nil
	}
	if plainErr != nil {
		if plainErr.Error() != withBErr.Error() {
			r.diverge("fault/budget-error-text", "plain", "budgeted", plainErr, withBErr)
		}
		return r, nil
	}
	plainJSON, err := json.Marshal(sched.Encode(plain))
	if err != nil {
		return nil, fmt.Errorf("verify: encoding plain plan: %w", err)
	}
	withBJSON, err := json.Marshal(sched.Encode(withB))
	if err != nil {
		return nil, fmt.Errorf("verify: encoding budgeted plan: %w", err)
	}
	if string(plainJSON) != string(withBJSON) {
		r.diverge("fault/budget-bytes", "plain", "budgeted",
			fmt.Sprintf("%.120s", plainJSON), fmt.Sprintf("%.120s", withBJSON))
	}

	// The exposure baseline: how long the schedule lets data rest in the
	// cells between refreshes at nominal retention scale.
	interval := opts.RefreshInterval
	if interval <= 0 {
		interval = retention.TolerableRetentionTime
	}
	budget := opts.ErrorBudget
	if budget <= 0 {
		budget = retention.TolerableFailureRate
	}

	for _, bk := range mem.Buffers() {
		for _, p := range bk.Points() {
			spec := bk.Name() + "@" + p.Name
			if p.BitErrorRate > budget {
				// Negative oracle: the uniform budget must reject the
				// point outright...
				r.Notes = append(r.Notes, spec+"!")
				o := withFaults(bk.Name(), p.Name)
				if _, err := sched.Schedule(net, cfg, o); err == nil {
					r.diverge("fault/reject/"+spec, "rejected", spec, "schedule error", "admitted")
				}
				// ...and with the uniform budget deliberately loosened
				// to 1, the per-layer curves alone must still reject
				// it, naming the layer whose budget it breaks.
				if p.BitErrorRate > maxBudget {
					o.ErrorBudget = 1
					if _, err := sched.Schedule(net, cfg, o); err == nil {
						r.diverge("fault/reject-layer/"+spec, "rejected", spec, "schedule error", "admitted")
					} else if !strings.Contains(err.Error(), "for layer") {
						r.diverge("fault/reject-layer-message/"+spec, "rejected", spec,
							`error naming "for layer"`, err)
					}
				}
				continue
			}
			if p.Name == mem.Nominal {
				continue // fault-free by construction
			}
			r.Notes = append(r.Notes, spec)
			plan, err := sched.Schedule(net, cfg, withFaults(bk.Name(), p.Name))
			if err != nil {
				r.diverge("fault/admit/"+spec, "admissible", spec, "ok", err)
				continue
			}
			scale := p.RetentionScale
			if scale <= 0 {
				scale = 1
			}
			pointInterval := time.Duration(float64(interval) * scale)
			for i, lp := range plan.Layers {
				l := net.Layers[i]
				// Admission soundness, calibrated: the layer's own curve
				// must accept the point's raw rate.
				if rel := training.LayerRelativeAccuracy(net.Name, i, len(net.Layers), p.BitErrorRate); rel < constraint {
					r.diverge("fault/curve/"+spec+"/"+l.Name, "curve", spec,
						fmt.Sprintf(">= %g", constraint), rel)
				}
				// Mask derivation: the point's rate scaled by the
				// layer's real cell exposure (lifetime vs the scaled
				// refresh interval), drawn over the layer's buffer
				// region (windowed), seeded from (seed, spec, layer).
				eff := fault.ExposureRate(p.BitErrorRate, lp.Analysis.Lifetimes.Max(), pointInterval)
				words := int(l.InputWords() + l.WeightWords() + l.OutputWords())
				if words > maskWindow {
					words = maskWindow
				}
				mseed := fault.MixSeed(seed, spec+"/"+l.Name)
				m, err := fault.New(words, fault.FlipRate(eff), mseed)
				if err != nil {
					return nil, fmt.Errorf("verify: deriving mask for %s under %s: %w", l.Name, spec, err)
				}
				again, err := fault.New(words, fault.FlipRate(eff), mseed)
				if err != nil {
					return nil, fmt.Errorf("verify: re-deriving mask for %s under %s: %w", l.Name, spec, err)
				}
				if h, h2 := m.Hash(), again.Hash(); h != h2 {
					r.diverge("fault/mask-bytes/"+spec+"/"+l.Name, "first draw", "redraw", h, h2)
				}
				for _, fl := range m.Flips {
					if fl.Word < 0 || fl.Word >= words || fl.Bit >= fixed.WordBits {
						r.diverge("fault/mask-range/"+spec+"/"+l.Name, "mask", spec,
							fmt.Sprintf("flips within %d words × %d bits", words, fixed.WordBits),
							fmt.Sprintf("(%d, %d)", fl.Word, fl.Bit))
						break
					}
				}
			}
			// Admission soundness, empirical: the pretrained demo model
			// under the point's raw rate, measured twice.
			if oracle != nil {
				rel, det := oracle.Relative(p.BitErrorRate)
				if !det {
					r.diverge("fault/accuracy-deterministic/"+spec, "first run", "rerun",
						"bit-identical accuracy", "differs")
				}
				if rel < oracle.Constraint {
					r.diverge("fault/accuracy/"+spec, "oracle", spec,
						fmt.Sprintf(">= %g", oracle.Constraint), rel)
				}
			}
		}
	}
	return r, nil
}

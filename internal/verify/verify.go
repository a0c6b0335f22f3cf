// Package verify is the cross-model conformance harness for the RANA
// pipeline. The repository carries three independent derivations of the
// same loop semantics — the closed-form analytical model
// (pattern.Analyze) behind the Eq. 14 scheduler, the tile-granular cycle
// walker (sim.Walk), and the word-accurate functional simulator
// (sim.RunFunctional) — and every headline number (99.7% refresh removal,
// 66.2% energy saving) silently depends on their agreement.
//
// The package provides four layers of checking:
//
//   - a differential oracle (CompareLayer, CompareRefresh,
//     CompareFunctional) that runs two or more models on one
//     (layer, pattern, tiling, config) and reports any disagreement on
//     MAC counts, cycles, buffer traffic, data lifetimes, execution time
//     and refresh-word counts within declared tolerances.
//     CompareFunctional is the one functional oracle: a word-accurate
//     run through any buffer backend point's own buffer, optionally
//     under a fault mask, checked for execution time, refresh words,
//     word errors and injections — what rana-verify's -functional,
//     -backends and -faults spot checks all run;
//
//   - the differential matrix (Matrix): every scheduler setting that
//     claims a relation to another — search strategy, worker count,
//     memo, enlarged axes, spelled defaults, memo envelopes — is one
//     declarative variant compiled against a shared reference;
//
//   - runtime invariant checkers: CheckPlan validates every structural
//     invariant of a schedule (bank allocations within the buffer,
//     refresh flags consistent with the guarded lifetimes, energy
//     counters non-negative and conserved across Plan.Totals) on a plan
//     the scheduler returned; RunObserver plugs into exec.Engine and
//     enforces a monotonic model clock across chained RunFunctionalAt
//     calls;
//
//   - a shrinking minimizer (Minimize) that reduces a diverging case to
//     a small repro, used by cmd/rana-verify's reports.
//
// Tolerances are deliberately tight: cycle counts, traffic words and
// refresh words must agree exactly; durations may differ by the
// nanosecond rounding of the cycles→time conversion (DefaultTolerances).
package verify

import (
	"fmt"
	"strings"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
)

// Tolerances declares how much disagreement the oracle accepts.
type Tolerances struct {
	// Duration is the absolute slack for wall-time comparisons: the
	// cycles→time conversion rounds to whole nanoseconds independently in
	// each model, so durations built from equal cycle counts may differ
	// by up to one nanosecond per conversion.
	Duration time.Duration
	// RelEnergy is the relative slack for energy conservation checks;
	// summing per-layer breakdowns and pricing summed counts differ only
	// by floating-point association.
	RelEnergy float64
}

// DefaultTolerances are the tolerances cmd/rana-verify and the tests run
// with: 1 ns of duration slack, one part in 10⁹ of energy slack, and
// exact agreement everywhere else.
func DefaultTolerances() Tolerances {
	return Tolerances{Duration: time.Nanosecond, RelEnergy: 1e-9}
}

// closeDur reports whether two durations agree within the tolerance.
func (t Tolerances) closeDur(a, b time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= t.Duration
}

// closeEnergy reports whether two picojoule totals agree within the
// relative tolerance.
func (t Tolerances) closeEnergy(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m < 1 {
		m = 1
	}
	return d <= t.RelEnergy*m
}

// Divergence is one cross-model disagreement found by the oracle.
type Divergence struct {
	// Check names the quantity that disagreed, e.g. "cycles" or
	// "buffer-traffic/inputs".
	Check string
	// Models names the two sides, e.g. "analytical" vs "walker".
	Models [2]string
	// Want and Got are the two sides' values, rendered.
	Want, Got string
}

// String implements fmt.Stringer.
func (d Divergence) String() string {
	return fmt.Sprintf("%s: %s=%s, %s=%s", d.Check, d.Models[0], d.Want, d.Models[1], d.Got)
}

// Report is the outcome of one check, whatever checked it: the subject
// (a layer case, a network's matrix run, a backend sweep, a replayed
// request), notes on what the check exercised, and every divergence it
// found. Every Compare* and Matrix.Run returns one.
type Report struct {
	Subject     string
	Notes       []string
	Divergences []Divergence
}

// OK reports whether the check passed.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

// String summarizes the report: the notes when it passed, one
// divergence per line when it did not.
func (r *Report) String() string {
	if r.OK() {
		if len(r.Notes) == 0 {
			return r.Subject + ": ok"
		}
		return fmt.Sprintf("%s: ok (%s)", r.Subject, strings.Join(r.Notes, ", "))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d divergences\n", r.Subject, len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}

// diverge appends a divergence between two rendered values.
func (r *Report) diverge(check, wantModel, gotModel string, want, got any) {
	r.Divergences = append(r.Divergences, Divergence{
		Check:  check,
		Models: [2]string{wantModel, gotModel},
		Want:   fmt.Sprint(want),
		Got:    fmt.Sprint(got),
	})
}

// note appends one line on what the check exercised.
func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// caseSubject names one (layer, pattern, tiling, config) case.
func caseSubject(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config) string {
	return fmt.Sprintf("%s %v %v on %s", l.Name, k, t, cfg.Name)
}

// errString renders an error for a divergence, mapping nil to "ok".
func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// Violation is one broken runtime invariant.
type Violation struct {
	// Layer names the offending layer; empty for plan-level violations.
	Layer string
	// Invariant names the broken property, e.g. "alloc-within-banks".
	Invariant string
	// Detail explains the violation with the observed values.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Layer == "" {
		return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("%s: %s: %s", v.Layer, v.Invariant, v.Detail)
}

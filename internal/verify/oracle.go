package verify

import (
	"fmt"
	"time"

	"rana/internal/fault"
	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sim"
	"rana/internal/verify/gen"
)

// CompareLayer runs the analytical model (pattern.Analyze) and the cycle
// walker (sim.Walk) on one (layer, pattern, tiling, config) and reports
// every disagreement: MAC accounting, cycle counts, execution time,
// per-type buffer traffic and per-type data lifetimes, plus the internal
// sanity bounds both models must respect (no lifetime outlives the
// execution window, utilization stays in (0,1], off-chip traffic covers
// the compulsory transfers). Inputs must be valid — Analyze and Walk
// panic on malformed layers or tilings by design.
func CompareLayer(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config, tol Tolerances) *Report {
	r := &Report{Subject: caseSubject(l, k, t, cfg)}
	a := pattern.MustAnalyze(l, k, t, cfg)
	w := sim.Walk(l, k, t, cfg)

	// MAC accounting: the analytical α must equal the layer's own count.
	if a.MACs != l.MACs() {
		r.diverge("macs", "models", "analytical", l.MACs(), a.MACs)
	}

	// Cycle counts and their wall-time conversions.
	if a.Cycles != w.Cycles {
		r.diverge("cycles", "analytical", "walker", a.Cycles, w.Cycles)
	}
	if !tol.closeDur(a.ExecTime, w.ExecTime) {
		r.diverge("exec-time", "analytical", "walker", a.ExecTime, w.ExecTime)
	}

	// Buffer traffic must agree word-for-word, per data type.
	if a.BufferTraffic.Inputs != w.BufferTraffic.Inputs {
		r.diverge("buffer-traffic/inputs", "analytical", "walker", a.BufferTraffic.Inputs, w.BufferTraffic.Inputs)
	}
	if a.BufferTraffic.Outputs != w.BufferTraffic.Outputs {
		r.diverge("buffer-traffic/outputs", "analytical", "walker", a.BufferTraffic.Outputs, w.BufferTraffic.Outputs)
	}
	if a.BufferTraffic.Weights != w.BufferTraffic.Weights {
		r.diverge("buffer-traffic/weights", "analytical", "walker", a.BufferTraffic.Weights, w.BufferTraffic.Weights)
	}

	// Data lifetimes: the walker's empirical residency maxima must match
	// the closed-form Eqs. 4–5 / 9–10 within the rounding tolerance.
	if !tol.closeDur(a.Lifetimes.Input, w.Lifetimes.Input) {
		r.diverge("lifetime/input", "analytical", "walker", a.Lifetimes.Input, w.Lifetimes.Input)
	}
	if !tol.closeDur(a.Lifetimes.Output, w.Lifetimes.Output) {
		r.diverge("lifetime/output", "analytical", "walker", a.Lifetimes.Output, w.Lifetimes.Output)
	}
	if !tol.closeDur(a.Lifetimes.Weight, w.Lifetimes.Weight) {
		r.diverge("lifetime/weight", "analytical", "walker", a.Lifetimes.Weight, w.Lifetimes.Weight)
	}

	// No datum can rest in the buffer longer than the layer executes.
	exec := a.ExecTime + tol.Duration
	for _, lt := range []struct {
		name string
		a, w time.Duration
	}{
		{"input", a.Lifetimes.Input, w.Lifetimes.Input},
		{"output", a.Lifetimes.Output, w.Lifetimes.Output},
		{"weight", a.Lifetimes.Weight, w.Lifetimes.Weight},
	} {
		if lt.a > exec {
			r.diverge("lifetime-bound/"+lt.name, "analytical", "analytical", "<= exec "+a.ExecTime.String(), lt.a)
		}
		if lt.w > exec {
			r.diverge("lifetime-bound/"+lt.name, "walker", "walker", "<= exec "+a.ExecTime.String(), lt.w)
		}
	}

	// Utilization is a fraction of the array's peak.
	if a.Utilization <= 0 || a.Utilization > 1+1e-12 {
		r.diverge("utilization", "analytical", "analytical", "(0,1]", a.Utilization)
	}

	// Off-chip traffic must cover the compulsory transfers: every weight
	// is fetched at least once and every output shipped at least once.
	if a.DDRTraffic.Weights < l.WeightWords() {
		r.diverge("ddr-traffic/weights", "models", "analytical", ">= "+fmt.Sprint(l.WeightWords()), a.DDRTraffic.Weights)
	}
	if a.DDRTraffic.Outputs < l.OutputWords() {
		r.diverge("ddr-traffic/outputs", "models", "analytical", ">= "+fmt.Sprint(l.OutputWords()), a.DDRTraffic.Outputs)
	}

	// FitsBuffer must be exactly the capacity predicate on the storage
	// requirement.
	if a.FitsBuffer != (a.BufferStorage.Total() <= cfg.BufferWords) {
		r.diverge("fits-buffer", "analytical", "analytical",
			a.BufferStorage.Total() <= cfg.BufferWords, a.FitsBuffer)
	}
	return r
}

// countingRefresher tallies word-refresh operations like an eDRAM bank
// would, without modeling cells — the tick-model endpoint CompareRefresh
// drives the real Issuer against.
type countingRefresher struct {
	banks, bankWords int
}

func (c countingRefresher) Banks() int { return c.banks }
func (c countingRefresher) RefreshBank(bank int, _ time.Duration) uint64 {
	return uint64(c.bankWords)
}

// CompareRefresh cross-checks the analytical refresh-word accounting
// (memctrl.RefreshWords, the γ of Eq. 14) against the tick-level
// controller model of Fig. 14: a real Divider + Issuer programmed with
// the plan's expanded per-bank refresh flags and advanced across the
// layer's execution window. The two models quantize the refresh period
// differently (the divider rounds down to whole reference cycles), so
// pulse counts may differ by the derived quantization bound; per-pulse
// word counts must agree exactly. opts must carry a controller and a
// positive interval.
func CompareRefresh(a pattern.Analysis, cfg hw.Config, opts sched.Options, tol Tolerances) (*Report, error) {
	if opts.Controller == nil || opts.RefreshInterval <= 0 {
		return nil, fmt.Errorf("verify: CompareRefresh needs a controller and a positive interval")
	}
	r := &Report{Subject: caseSubject(a.Layer, a.Pattern, a.Tiling, cfg)}
	banks, bankWords := cfg.Banks(), cfg.BankWords

	alloc := memctrl.Allocate(a.BufferStorage, bankWords, banks)
	guarded := time.Duration(float64(opts.RefreshInterval) * opts.Guard())
	needs := memctrl.NeedsFor(a.Lifetimes, guarded)
	analytic := memctrl.RefreshWords(opts.Controller, a.ExecTime, opts.RefreshInterval,
		alloc, needs, banks, bankWords)

	// Expand the flags the way the execution phase would, then check the
	// expansion against the controller's per-pulse arithmetic: the two
	// are independent paths from (alloc, needs) to refreshed words.
	var flags []bool
	switch opts.Controller.(type) {
	case memctrl.Conventional:
		flags = make([]bool, banks)
		if needs.Any() {
			for i := range flags {
				flags[i] = true
			}
		}
	default:
		flags = sched.LayerPlan{Needs: needs, Alloc: alloc}.RefreshFlags(banks)
	}
	flagged := 0
	for _, f := range flags {
		if f {
			flagged++
		}
	}
	perPulse := opts.Controller.WordsPerPulse(alloc, needs, banks, bankWords)
	if uint64(flagged)*uint64(bankWords) != perPulse {
		r.diverge("refresh/words-per-pulse", "flags", "controller",
			uint64(flagged)*uint64(bankWords), perPulse)
	}

	// Drive the real issuer across the execution window.
	div, err := memctrl.NewDivider(cfg.FrequencyHz, opts.RefreshInterval)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	issuer, err := memctrl.NewIssuer(div, banks)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if err := issuer.SetFlags(flags); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	issuer.AdvanceTo(a.ExecTime, countingRefresher{banks: banks, bankWords: bankWords})
	tick := issuer.Issued()

	// The issuer must fire exactly floor(exec/period) pulses at the
	// divider's achieved period.
	achievedPulses := memctrl.Pulses(a.ExecTime, div.Period())
	if want := achievedPulses * uint64(flagged) * uint64(bankWords); tick != want {
		r.diverge("refresh/tick-words", "divider", "issuer", want, tick)
	}

	// The analytical pulse count at the requested interval may lag the
	// tick count only by the divider's quantization: the achieved period
	// is shorter than the interval by less than one reference cycle, so
	// over C executed cycles the drift is bounded by C/ratio² pulses.
	analyticPulses := memctrl.Pulses(a.ExecTime, opts.RefreshInterval)
	drift := float64(a.Cycles)/(float64(div.Ratio())*float64(div.Ratio())) + 1
	if float64(achievedPulses)-float64(analyticPulses) > drift || achievedPulses < analyticPulses {
		r.diverge("refresh/pulses", "analytical", "tick",
			fmt.Sprintf("%d (+%.0f quantization)", analyticPulses, drift), achievedPulses)
	}

	// And the analytical total must be exactly pulses × per-pulse words.
	if want := analyticPulses * perPulse; analytic != want {
		r.diverge("refresh/analytic-words", "pulses×perPulse", "RefreshWords", want, analytic)
	}
	return r, nil
}

// inBoundsMACs counts the MACs the functional simulator actually
// executes: padding positions contribute no arithmetic, so the count is
// the number of in-bounds (input row, input column) pairs summed over
// output positions, times M·N.
func inBoundsMACs(l models.ConvLayer) uint64 {
	R, C := l.R(), l.C()
	var perChannel uint64
	for or := 0; or < R; or++ {
		for oc := 0; oc < C; oc++ {
			for kr := 0; kr < l.K; kr++ {
				ir := or*l.S + kr - l.P
				if ir < 0 || ir >= l.H {
					continue
				}
				for kc := 0; kc < l.K; kc++ {
					ic := oc*l.S + kc - l.P
					if ic >= 0 && ic < l.L {
						perChannel++
					}
				}
			}
		}
	}
	return perChannel * uint64(l.M) * uint64(l.N)
}

// CompareFunctional executes one small ungrouped layer word by word
// through the functional buffer of spec ("backend" or "backend@point",
// a buffer backend) at its operating point — on a refreshing backend
// refreshed at the point's scaled conventional rate (the 45 µs
// weakest-cell interval times the point's retention scale), with every
// bank the layer's [inputs | weights | outputs] layout touches flagged —
// and checks the run against the other models:
//
//   - execution time: the in-bounds MAC count at the array's
//     throughput, whatever the technology;
//   - refresh words, on a refreshing backend: the tick model's
//     prediction, every flagged bank refreshed at each pulse of the
//     issuer's achieved period;
//   - word errors: the output equals the perfect-memory reference but
//     for the words the fault mask names, so the error count is the
//     mask's distinct-word count, zero without a mask;
//   - injections, with a mask: the overlay served exactly that many
//     corrupted reads (outputs are read back once, at the end).
//
// A positive faultRate draws that mask over the output region
// (fault.New, seeded from seed, spec and the layer's name) and overlays
// it with fault.Wrap; refresh traffic must not scrub it. The layer's
// working set must fit cfg's buffer.
func CompareFunctional(spec string, l models.ConvLayer, cfg hw.Config, faultRate float64, seed uint64, tol Tolerances) (*Report, error) {
	return compareFunctional(spec, l, cfg, faultRate, seed, tol, nil)
}

// functionalRig is what one CompareFunctional run executes with: the
// clock the simulator is timed by, the issuer's bank flags and the
// overlay's mask. The checks derive what they expect from
// CompareFunctional's arguments and the run's own span, never from the
// rig, so a test that breaks one rig input sees the check guarding it
// fire (TestOracleFunctionalMutants).
type functionalRig struct {
	clockHz float64
	flags   []bool
	mask    *fault.Mask
}

// compareFunctional is CompareFunctional with a hook that may break the
// rig before the run; nil leaves it intact.
func compareFunctional(spec string, l models.ConvLayer, cfg hw.Config, faultRate float64, seed uint64,
	tol Tolerances, mutate func(*functionalRig)) (*Report, error) {
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
	banks, bankWords := cfg.Banks(), cfg.BankWords
	din, dw, dout := int(l.InputWords()), int(l.WeightWords()), int(l.OutputWords())
	if din+dw+dout > banks*bankWords {
		return nil, fmt.Errorf("verify: layer needs %d words, buffer has %d", din+dw+dout, banks*bankWords)
	}
	r := &Report{Subject: fmt.Sprintf("%s functional %s", spec, l.Name)}

	// The weakest surviving cell of the point's scaled retention curve
	// sets the no-error refresh interval, as 45 µs does at nominal.
	interval := time.Duration(float64(retention.TypicalRetentionTime) * pt.RetentionScale)
	buf, refresher, err := sim.NewBuffer(bk, pt, cfg, interval, seed)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	used := (din + dw + dout + bankWords - 1) / bankWords
	rig := functionalRig{clockHz: cfg.FrequencyHz, flags: make([]bool, banks)}
	for i := 0; i < used; i++ {
		rig.flags[i] = true
	}
	masked := 0
	if faultRate > 0 {
		if rig.mask, err = fault.New(dout, faultRate, fault.MixSeed(seed, spec+"/"+l.Name)); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		masked = len(rig.mask.XorWords())
	}
	if mutate != nil {
		mutate(&rig)
	}
	if refresher != nil {
		if err := refresher.Issuer.SetFlags(rig.flags); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	var faulty *fault.FaultyStorage
	if rig.mask != nil {
		faulty = fault.Wrap(buf, rig.mask, din+dw)
		buf = faulty
	}

	g := gen.New(seed)
	ins := g.Words(din)
	ws := g.Words(dw)
	res, err := sim.RunFunctional(l, fixed.Q88, ins, ws, buf, refresher, cfg.PEs(), rig.clockHz)
	if err != nil {
		return nil, err
	}

	cycles := inBoundsMACs(l) / uint64(cfg.PEs())
	want := time.Duration(float64(cycles) / cfg.FrequencyHz * float64(time.Second))
	if !tol.closeDur(res.ExecTime, want) {
		r.diverge("functional/exec-time", "analytical", spec, want, res.ExecTime)
	}
	if refresher != nil {
		predicted := memctrl.Pulses(res.ExecTime, refresher.Issuer.Period()) * uint64(used) * uint64(bankWords)
		if res.RefreshWords != predicted {
			r.diverge("functional/refresh-words", "tick", spec, predicted, res.RefreshWords)
		}
	}
	if res.WordErrors != masked {
		r.diverge("functional/word-errors", "reference", spec, masked, res.WordErrors)
	}
	if faulty != nil && faulty.Injections() != masked {
		r.diverge("functional/injections", "mask", spec, masked, faulty.Injections())
	}
	return r, nil
}

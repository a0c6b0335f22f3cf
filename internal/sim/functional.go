package sim

import (
	"fmt"
	"time"

	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
)

// Refresher pairs a refresh issuer with the bank-refreshable buffer it
// drives; nil disables refresh entirely.
type Refresher struct {
	Issuer *memctrl.Issuer
	Target memctrl.BankRefresher
}

// NewBuffer builds backend bk's functional buffer at operating point p
// in cfg's bank geometry, its cells sampled from seed. A refreshing
// backend's buffer comes with the Fig. 14 refresh machinery: a divider
// from cfg's clock down to interval and an issuer over the buffer's
// banks, every flag clear until the caller loads a layer's flags. A
// non-refreshing backend gets a nil Refresher and interval is unused.
func NewBuffer(bk mem.Backend, p mem.OperatingPoint, cfg hw.Config, interval time.Duration, seed uint64) (mem.Buffer, *Refresher, error) {
	buf, err := bk.NewBuffer(cfg.Banks(), cfg.BankWords, seed, p)
	if err != nil || !bk.Refreshes() {
		return buf, nil, err
	}
	target, ok := buf.(memctrl.BankRefresher)
	if !ok {
		return nil, nil, fmt.Errorf("sim: refreshing backend %q built a non-refreshable buffer %T", bk.Name(), buf)
	}
	div, err := memctrl.NewDivider(cfg.FrequencyHz, interval)
	if err != nil {
		return nil, nil, err
	}
	issuer, err := memctrl.NewIssuer(div, target.Banks())
	if err != nil {
		return nil, nil, err
	}
	return buf, &Refresher{Issuer: issuer, Target: target}, nil
}

// FunctionalResult is the outcome of a word-accurate layer execution
// through a buffer model.
type FunctionalResult struct {
	// Output is the layer output read back from the buffer at the end.
	Output []fixed.Word
	// Reference is the same convolution computed directly, bypassing the
	// buffer — what an ideal memory would return.
	Reference []fixed.Word
	// WordErrors counts output words that differ from the reference due
	// to retention decay.
	WordErrors int
	// ExecTime is the modeled execution span.
	ExecTime time.Duration
	// RefreshWords counts word-refresh operations issued.
	RefreshWords uint64
	// BufferAccesses counts the buffer reads and writes the execution
	// issued: every operand and output written once, two operand reads
	// per MAC, one read-back per output.
	BufferAccesses uint64
}

// RunFunctional executes one small convolution layer word-by-word through
// the buffer: inputs and weights are preloaded at t=0, every operand read
// happens at its modeled cycle time, outputs are written back and finally
// read out. If refresh is non-nil, due refresh pulses are issued as the
// clock advances — exactly the interplay of data lifetime, retention
// decay and refresh that RANA reasons about, made executable.
//
// The layer must be ungrouped and small enough that inputs + weights +
// outputs fit the buffer; macsPerCycle and frequencyHz set the time
// scale (lower frequency → longer lifetimes → more decay).
func RunFunctional(l models.ConvLayer, f fixed.Format, inputs, weights []fixed.Word,
	buf mem.Buffer, refresh *Refresher, macsPerCycle int, frequencyHz float64) (*FunctionalResult, error) {
	return RunFunctionalAt(l, f, inputs, weights, buf, refresh, macsPerCycle, frequencyHz, 0)
}

// RunFunctionalAt is RunFunctional with the model clock starting at
// start instead of zero — required when chaining layers on one buffer so
// decay state and the refresh issuer's schedule stay on a single
// monotonic timeline (internal/exec).
func RunFunctionalAt(l models.ConvLayer, f fixed.Format, inputs, weights []fixed.Word,
	buf mem.Buffer, refresh *Refresher, macsPerCycle int, frequencyHz float64,
	start time.Duration) (*FunctionalResult, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if l.Groups > 1 {
		return nil, fmt.Errorf("sim: functional mode does not support grouped layers")
	}
	if macsPerCycle <= 0 || frequencyHz <= 0 {
		return nil, fmt.Errorf("sim: invalid time scale (%d MACs/cycle at %g Hz)", macsPerCycle, frequencyHz)
	}
	din := int(l.InputWords())
	dw := int(l.WeightWords())
	dout := int(l.OutputWords())
	if len(inputs) != din || len(weights) != dw {
		return nil, fmt.Errorf("sim: got %d inputs and %d weights, want %d and %d",
			len(inputs), len(weights), din, dw)
	}
	if din+dw+dout > buf.Words() {
		return nil, fmt.Errorf("sim: layer needs %d words, buffer has %d", din+dw+dout, buf.Words())
	}

	// Buffer layout: [inputs | weights | outputs].
	inBase, wBase, outBase := 0, din, din+dw
	clock := func(cycles uint64) time.Duration {
		return start + time.Duration(float64(cycles)/frequencyHz*float64(time.Second))
	}
	sync := func(now time.Duration) {
		if refresh != nil {
			refresh.Issuer.AdvanceTo(now, refresh.Target)
		}
	}

	// Preload at the start of the layer's window.
	for i, w := range inputs {
		buf.Write(inBase+i, w, start)
	}
	for i, w := range weights {
		buf.Write(wBase+i, w, start)
	}

	R, C := l.R(), l.C()
	inAt := func(n, r, c int) int { return (n*l.H+r)*l.L + c }
	wAt := func(m, n, kr, kc int) int { return ((m*l.N+n)*l.K+kr)*l.K + kc }

	ref := ReferenceConv(l, f, inputs, weights)
	var macs uint64
	for m := 0; m < l.M; m++ {
		for or := 0; or < R; or++ {
			for oc := 0; oc < C; oc++ {
				var acc fixed.Acc
				for n := 0; n < l.N; n++ {
					for kr := 0; kr < l.K; kr++ {
						ir := or*l.S + kr - l.P
						if ir < 0 || ir >= l.H {
							continue
						}
						for kc := 0; kc < l.K; kc++ {
							ic := oc*l.S + kc - l.P
							if ic < 0 || ic >= l.L {
								continue
							}
							now := clock(macs / uint64(macsPerCycle))
							sync(now)
							a := buf.Read(inBase+inAt(n, ir, ic), now)
							b := buf.Read(wBase+wAt(m, n, kr, kc), now)
							acc = fixed.MAC(acc, a, b)
							macs++
						}
					}
				}
				now := clock(macs / uint64(macsPerCycle))
				buf.Write(outBase+(m*R+or)*C+oc, f.Fold(acc), now)
			}
		}
	}

	end := clock(macs / uint64(macsPerCycle))
	sync(end)
	res := &FunctionalResult{
		Reference:      ref,
		ExecTime:       end - start,
		BufferAccesses: uint64(din+dw+2*dout) + 2*macs,
	}
	res.Output = make([]fixed.Word, dout)
	for i := range res.Output {
		res.Output[i] = buf.Read(outBase+i, end)
		if res.Output[i] != ref[i] {
			res.WordErrors++
		}
	}
	if refresh != nil {
		res.RefreshWords = refresh.Issuer.Issued()
	}
	return res, nil
}

// ReferenceConv computes the convolution directly on the word arrays:
// what a perfect memory returns, the oracle every word-accurate run is
// held to.
func ReferenceConv(l models.ConvLayer, f fixed.Format, inputs, weights []fixed.Word) []fixed.Word {
	R, C := l.R(), l.C()
	out := make([]fixed.Word, l.OutputWords())
	inAt := func(n, r, c int) int { return (n*l.H+r)*l.L + c }
	wAt := func(m, n, kr, kc int) int { return ((m*l.N+n)*l.K+kr)*l.K + kc }
	for m := 0; m < l.M; m++ {
		for or := 0; or < R; or++ {
			for oc := 0; oc < C; oc++ {
				var acc fixed.Acc
				for n := 0; n < l.N; n++ {
					for kr := 0; kr < l.K; kr++ {
						ir := or*l.S + kr - l.P
						if ir < 0 || ir >= l.H {
							continue
						}
						for kc := 0; kc < l.K; kc++ {
							ic := oc*l.S + kc - l.P
							if ic < 0 || ic >= l.L {
								continue
							}
							acc = fixed.MAC(acc, inputs[inAt(n, ir, ic)], weights[wAt(m, n, kr, kc)])
						}
					}
				}
				out[(m*R+or)*C+oc] = f.Fold(acc)
			}
		}
	}
	return out
}

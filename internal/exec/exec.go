// Package exec is the execution phase of the RANA framework (Fig. 6,
// right half): it runs a scheduled network end to end on the functional
// hardware models — words move from the DDR model through the buffer
// technology's default backend (eDRAM or SRAM, built by sim.NewBuffer)
// into the arithmetic, the refresh-optimized controller issues pulses
// per the compiled per-layer flags, and retention decay is physically
// simulated. Each layer runs through sim.RunFunctionalAt and is held to
// sim.ReferenceConv, the same word-accurate path verify's functional
// oracle checks. The output is both the network's numerical result
// and the measured operation counters, so energy can be accounted from
// observed behaviour rather than the analytical model.
//
// Word-accurate execution is only tractable for small networks (every
// MAC is simulated); the benchmark-scale evaluation uses the analytical
// path in internal/platform. This engine exists to validate the whole
// RANA pipeline against physics: the compiled refresh schedule must keep
// results exact while skipping nearly all refresh operations.
package exec

import (
	"fmt"
	"time"

	"rana/internal/ddr"
	"rana/internal/energy"
	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sim"
)

// Observer receives per-layer execution events from Run. The verification
// harness (internal/verify) plugs runtime invariant checks in here — e.g.
// that the model clock stays monotonic across chained RunFunctionalAt
// calls and that refresh counters never decrease. A non-nil error aborts
// the run.
type Observer interface {
	// LayerExecuted fires after layer index completes: start and end are
	// the layer's window on the engine's model clock, refreshWords the
	// cumulative word-refresh count after the layer.
	LayerExecuted(index int, layer models.ConvLayer, start, end time.Duration, refreshWords uint64) error
}

// Engine executes scheduled networks on functional models: the
// configuration's default buffer backend (internal/mem) at its nominal
// point, in Q8.8 arithmetic.
type Engine struct {
	Config hw.Config
	// Seed drives cell-retention sampling.
	Seed uint64
	// Observer, when non-nil, receives per-layer execution events.
	Observer Observer
}

// New returns an engine for the configuration, seeded with 1.
func New(cfg hw.Config) *Engine {
	return &Engine{Config: cfg, Seed: 1}
}

// Report is the outcome of one network execution.
type Report struct {
	// Output is the final layer's output read back through the buffer.
	Output []fixed.Word
	// Ideal is the same network computed with perfect memory.
	Ideal []fixed.Word
	// WordErrors counts final-output words that differ from Ideal.
	WordErrors int
	// ExecTime is the modeled wall time of the whole network.
	ExecTime time.Duration
	// Counts are the measured Eq. 14 operation coefficients: α from the
	// arithmetic, βb from the simulator's buffer reads and writes, γ
	// from the refresh issuer and βd from the DDR model.
	Counts energy.Counts
	// Energy prices the measured counts.
	Energy energy.Breakdown
}

// Run executes a scheduled plan whose network chains (each layer's input
// shape matches the previous layer's output) starting from input. The
// plan's per-layer refresh flags program the controller; a nil plan entry
// set is invalid. Weights are supplied per layer, indexed like the plan.
// A plan compiled for another backend than the configuration's default,
// or for a non-nominal operating point, is refused: the engine would run
// and price it on other hardware than it was scheduled for.
func (e *Engine) Run(plan *sched.Plan, input []fixed.Word, weights [][]fixed.Word) (*Report, error) {
	if plan == nil || len(plan.Layers) == 0 {
		return nil, fmt.Errorf("exec: empty plan")
	}
	if len(weights) != len(plan.Layers) {
		return nil, fmt.Errorf("exec: %d weight sets for %d layers", len(weights), len(plan.Layers))
	}
	if err := validateChain(plan.Network); err != nil {
		return nil, err
	}
	cfg := e.Config
	if err := checkBackend(plan, cfg.BufferTech); err != nil {
		return nil, err
	}

	// The functional buffer comes from the technology's default backend:
	// eDRAM decays and brings the refresh machinery at the plan's
	// interval; SRAM retains unconditionally and runs without one.
	bk := mem.Default(cfg.BufferTech)
	buf, refresher, err := sim.NewBuffer(bk, bk.Points()[0], cfg, plan.Options.RefreshInterval, e.Seed)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}

	dram := ddr.New()
	dram.Store("act0", input)
	for i, ws := range weights {
		l := plan.Network.Layers[i]
		if uint64(len(ws)) != l.WeightWords() {
			return nil, fmt.Errorf("exec: layer %d: %d weights, want %d", i, len(ws), l.WeightWords())
		}
		dram.Store(fmt.Sprintf("w%d", i), ws)
	}

	report := &Report{}
	ideal := append([]fixed.Word(nil), input...)
	macsPerCycle := cfg.PEs()

	for i := range plan.Layers {
		l := plan.Network.Layers[i]
		lp := plan.Layers[i]

		// Stage 3: load this layer's refresh flags (§IV-D2). The compiled
		// per-type needs are mapped onto the engine's actual buffer
		// layout ([inputs | weights | outputs]). SRAM needs none.
		if refresher != nil {
			if err := refresher.Issuer.SetFlags(functionalFlags(l, lp.Needs, cfg.BankWords, cfg.Banks())); err != nil {
				return nil, fmt.Errorf("exec: layer %d: %w", i, err)
			}
		}

		acts, err := dram.Load(fmt.Sprintf("act%d", i))
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		ws, err := dram.Load(fmt.Sprintf("w%d", i))
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		layerStart := report.ExecTime
		res, err := sim.RunFunctionalAt(l, fixed.Q88, acts, ws, buf, refresher,
			macsPerCycle, cfg.FrequencyHz, report.ExecTime)
		if err != nil {
			return nil, fmt.Errorf("exec: layer %d (%s): %w", i, l.Name, err)
		}
		report.Counts.MACs += l.MACs()
		report.ExecTime += res.ExecTime
		report.Counts.BufferAccesses += res.BufferAccesses
		if e.Observer != nil {
			var issued uint64
			if refresher != nil {
				issued = refresher.Issuer.Issued()
			}
			if err := e.Observer.LayerExecuted(i, l, layerStart, report.ExecTime, issued); err != nil {
				return nil, fmt.Errorf("exec: layer %d (%s): invariant: %w", i, l.Name, err)
			}
		}
		dram.Store(fmt.Sprintf("act%d", i+1), res.Output)

		// Ideal path with perfect memory.
		ideal = sim.ReferenceConv(l, fixed.Q88, ideal, ws)

		if i == len(plan.Layers)-1 {
			report.Output = res.Output
		}
	}

	report.Ideal = ideal
	for i := range report.Output {
		if report.Output[i] != report.Ideal[i] {
			report.WordErrors++
		}
	}
	report.Counts.DDRAccesses = dram.Accesses()
	if refresher != nil {
		report.Counts.Refreshes = refresher.Issuer.Issued()
	}
	report.Energy = energy.System(report.Counts, cfg.BufferTech)
	return report, nil
}

// checkBackend reports the first layer the plan compiled for another
// backend or operating point than the technology's default backend at
// nominal, the only one Run simulates.
func checkBackend(plan *sched.Plan, tech energy.BufferTech) error {
	def, backend := mem.DefaultName(tech), plan.Options.Backend
	if backend == "" {
		backend = def
	}
	for i := range plan.Layers {
		if point := plan.Layers[i].Point; backend != def || point != "" {
			if point == "" {
				point = mem.Nominal
			}
			return fmt.Errorf("exec: layer %d (%s) was compiled for %s@%s; the engine runs %s@%s",
				i, plan.Network.Layers[i].Name, backend, point, def, mem.Nominal)
		}
	}
	return nil
}

// functionalFlags maps the plan's per-type refresh needs onto the
// engine's [inputs | weights | outputs] buffer layout: a bank is flagged
// when any word it holds belongs to a data type that needs refresh.
func functionalFlags(l models.ConvLayer, needs memctrl.Needs, bankWords, banks int) []bool {
	flags := make([]bool, banks)
	din := int(l.InputWords())
	dw := int(l.WeightWords())
	dout := int(l.OutputWords())
	mark := func(lo, hi int, on bool) {
		if !on {
			return
		}
		for b := lo / bankWords; b <= (hi-1)/bankWords && b < banks; b++ {
			flags[b] = true
		}
	}
	mark(0, din, needs.Inputs)
	mark(din, din+dw, needs.Weights)
	mark(din+dw, din+dw+dout, needs.Outputs)
	return flags
}

// validateChain checks that each layer consumes the previous layer's
// output shape.
func validateChain(net models.Network) error {
	if err := net.Validate(); err != nil {
		return err
	}
	for i := 1; i < len(net.Layers); i++ {
		prev, cur := net.Layers[i-1], net.Layers[i]
		if cur.N != prev.M || cur.H != prev.R() || cur.L != prev.C() {
			return fmt.Errorf("exec: layer %q input %dx%dx%d does not chain from %q output %dx%dx%d",
				cur.Name, cur.N, cur.H, cur.L, prev.Name, prev.M, prev.R(), prev.C())
		}
		if cur.Groups > 1 {
			return fmt.Errorf("exec: grouped layer %q unsupported in functional execution", cur.Name)
		}
	}
	return nil
}

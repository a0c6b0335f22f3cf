// Package platform assembles the paper's evaluation platform (§III-A,
// §V-A): the six design points of Table IV on the 256-PE test
// accelerator, and the DaDianNao scalability study of §V-C. A design
// point couples a buffer technology and capacity with a computation-
// pattern space, a retention failure rate (hence refresh interval), and a
// memory controller; evaluating it schedules a network and returns the
// Eq. 14 energy accounting.
package platform

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched"
)

// Design is one design point of Table IV.
type Design struct {
	// Name as printed in the paper's figures, e.g. "RANA*(E-5)".
	Name string
	// Tech selects the buffer technology.
	Tech energy.BufferTech
	// BufferWords is the on-chip buffer capacity; 0 keeps the base
	// configuration's capacity.
	BufferWords uint64
	// Patterns is the computation-pattern space ("Hybrid (OD+WD)" in the
	// paper is []Kind{OD, WD}).
	Patterns []pattern.Kind
	// FailureRate is the tolerated retention failure rate; with the
	// retention distribution it determines the refresh interval. Zero
	// means the conventional weakest-cell point (3×10⁻⁶ → 45 µs).
	FailureRate float64
	// RefreshInterval overrides the rate→interval lookup when non-zero
	// (used by the Fig. 16 retention-time sweep).
	RefreshInterval time.Duration
	// Optimized selects the refresh-optimized eDRAM controller of
	// Fig. 14 instead of the conventional one.
	Optimized bool
	// NaturalTiling restricts scheduling to the accelerator's native
	// tiling (baseline designs do not explore; only RANA does).
	NaturalTiling bool
	// Backend names the memory-technology backend the buffer is priced
	// through (internal/mem registry); empty selects the technology's
	// default adapter, reproducing the Table IV points byte for byte.
	Backend string
	// OperatingPoint pins one of the backend's operating points; empty
	// searches every point within the scheduler's error budget.
	OperatingPoint string
}

// Interval returns the design's refresh interval under the distribution.
func (d Design) Interval(dist *retention.Distribution) time.Duration {
	if d.RefreshInterval > 0 {
		return d.RefreshInterval
	}
	rate := d.FailureRate
	if rate == 0 {
		rate = retention.TypicalFailureRate
	}
	return dist.RetentionTime(rate)
}

// Controller returns the design's refresh controller, or nil for SRAM.
func (d Design) Controller() memctrl.Controller {
	if d.Tech == energy.SRAM {
		return nil
	}
	if d.Optimized {
		return memctrl.RefreshOptimized{}
	}
	return memctrl.Conventional{}
}

// Apply specializes a base hardware configuration to the design.
func (d Design) Apply(base hw.Config) hw.Config {
	cfg := base.WithBufferTech(d.Tech)
	if d.BufferWords > 0 {
		cfg = cfg.WithBufferWords(d.BufferWords)
	}
	return cfg
}

// WithBufferWords returns a copy of the design with a different buffer
// capacity — the Fig. 18 sweep.
func (d Design) WithBufferWords(words uint64) Design {
	d.BufferWords = words
	return d
}

// WithInterval returns a copy with a pinned refresh interval — the
// Fig. 16 retention-time sweep.
func (d Design) WithInterval(rt time.Duration) Design {
	d.RefreshInterval = rt
	return d
}

// WithBackend returns a copy priced through a named memory backend at a
// (possibly empty, i.e. searched) operating point — the axis the
// (network × backend × operating point) evaluation matrix sweeps.
func (d Design) WithBackend(backend, point string) Design {
	d.Backend = backend
	d.OperatingPoint = point
	return d
}

// The six design points of Table IV.
func SID() Design {
	return Design{Name: "S+ID", Tech: energy.SRAM, BufferWords: hw.TestSRAMWords,
		Patterns: []pattern.Kind{pattern.ID}, NaturalTiling: true}
}

func EDID() Design {
	return Design{Name: "eD+ID", Tech: energy.EDRAM, BufferWords: hw.TestEDRAMWords,
		Patterns: []pattern.Kind{pattern.ID}, NaturalTiling: true}
}

func EDOD() Design {
	return Design{Name: "eD+OD", Tech: energy.EDRAM, BufferWords: hw.TestEDRAMWords,
		Patterns: []pattern.Kind{pattern.OD}, NaturalTiling: true}
}

func RANA0() Design {
	return Design{Name: "RANA (0)", Tech: energy.EDRAM, BufferWords: hw.TestEDRAMWords,
		Patterns: []pattern.Kind{pattern.OD, pattern.WD}}
}

func RANAE5() Design {
	return Design{Name: "RANA (E-5)", Tech: energy.EDRAM, BufferWords: hw.TestEDRAMWords,
		Patterns:    []pattern.Kind{pattern.OD, pattern.WD},
		FailureRate: retention.TolerableFailureRate}
}

func RANAStarE5() Design {
	return Design{Name: "RANA*(E-5)", Tech: energy.EDRAM, BufferWords: hw.TestEDRAMWords,
		Patterns:    []pattern.Kind{pattern.OD, pattern.WD},
		FailureRate: retention.TolerableFailureRate, Optimized: true}
}

// Designs returns all six Table IV design points in paper order.
func Designs() []Design {
	return []Design{SID(), EDID(), EDOD(), RANA0(), RANAE5(), RANAStarE5()}
}

// designTable is Designs built once, for DesignByName. Each entry's
// Patterns is clipped to cap == len, so a holder of a returned design
// that appends reallocates instead of writing into the shared array.
var designTable = sync.OnceValue(func() []Design {
	ds := Designs()
	for i := range ds {
		ds[i].Patterns = slices.Clip(ds[i].Patterns)
	}
	return ds
})

// DesignByName returns the Table IV design with the given name, or
// false. The design's Patterns is shared with every other caller; treat
// it as read-only.
func DesignByName(name string) (Design, bool) {
	for _, d := range designTable() {
		if d.Name == name {
			return d, true
		}
	}
	return Design{}, false
}

// Platform couples a base accelerator with a retention distribution.
type Platform struct {
	Base hw.Config
	Dist *retention.Distribution
}

// Test returns the paper's evaluation platform: the 256-PE test
// accelerator with the typical retention distribution.
func Test() *Platform {
	return &Platform{Base: hw.TestAccelerator(), Dist: retention.Typical()}
}

// Options maps a design point onto the Stage-2 options it schedules
// with on this platform: the design's pattern space, its refresh
// interval under the platform's retention distribution, its refresh
// controller, the natural-tiling restriction, and its memory backend
// and operating point.
func (p *Platform) Options(d Design) sched.Options {
	return sched.Options{
		Patterns:        d.Patterns,
		RefreshInterval: d.Interval(p.Dist),
		Controller:      d.Controller(),
		NaturalTiling:   d.NaturalTiling,
		Backend:         d.Backend,
		OperatingPoint:  d.OperatingPoint,
	}
}

// Result is one (design, network) evaluation.
type Result struct {
	Design Design
	Plan   *sched.Plan
}

// Energy returns the network's total system energy breakdown.
func (r Result) Energy() energy.Breakdown { return r.Plan.Energy }

// Evaluate schedules and prices a network under a design point.
func (p *Platform) Evaluate(d Design, net models.Network) (Result, error) {
	return p.EvaluateContext(context.Background(), d, net)
}

// EvaluateContext is Evaluate with cancellation plumbed into the
// scheduling loop — the entry point the serving subsystem uses so an
// abandoned request stops exploring layers.
func (p *Platform) EvaluateContext(ctx context.Context, d Design, net models.Network) (Result, error) {
	plan, err := sched.ScheduleContext(ctx, net, d.Apply(p.Base), p.Options(d))
	if err != nil {
		return Result{}, fmt.Errorf("platform: design %s: %w", d.Name, err)
	}
	return Result{Design: d, Plan: plan}, nil
}

// EvaluateAll evaluates every design on every network, returning
// results[design][network] in the given orders. The cells are
// independent and evaluated concurrently.
func (p *Platform) EvaluateAll(designs []Design, nets []models.Network) ([][]Result, error) {
	out := make([][]Result, len(designs))
	errs := make([][]error, len(designs))
	var wg sync.WaitGroup
	for i, d := range designs {
		out[i] = make([]Result, len(nets))
		errs[i] = make([]error, len(nets))
		for j, n := range nets {
			wg.Add(1)
			go func(i, j int, d Design, n models.Network) {
				defer wg.Done()
				out[i][j], errs[i][j] = p.Evaluate(d, n)
			}(i, j, d, n)
		}
	}
	wg.Wait()
	for i := range errs {
		for j := range errs[i] {
			if errs[i][j] != nil {
				return nil, errs[i][j]
			}
		}
	}
	return out, nil
}

// --- DaDianNao scalability study (§V-C) ---

// DaDianNaoTiling is the node's fixed tiling: Tm=Tn=64, Tr=Tc=1.
func DaDianNaoTiling() pattern.Tiling {
	return pattern.Tiling{Tm: 64, Tn: 64, Tr: 1, Tc: 1}
}

// DaDianNao returns the scalability-study platform of §V-C.
func DaDianNao() *Platform {
	return &Platform{Base: hw.DaDianNao(), Dist: retention.Typical()}
}

// DaDianNaoDesigns returns the four Fig. 19 design points. Baseline
// DaDianNao uses only the WD computation pattern ("it only uses the WD
// computation pattern and produces frequent access to its weight
// buffer"); the RANA variants add the hybrid pattern, longer tolerable
// retention and the optimized controller while keeping the node's
// hardware parameters.
func DaDianNaoDesigns() []Design {
	base := Design{Tech: energy.EDRAM, BufferWords: hw.DaDianNaoWords}
	dd := base
	dd.Name = "DaDianNao"
	dd.Patterns = []pattern.Kind{pattern.WD}
	r0 := base
	r0.Name = "RANA (0)"
	r0.Patterns = []pattern.Kind{pattern.OD, pattern.WD}
	r5 := r0
	r5.Name = "RANA (E-5)"
	r5.FailureRate = retention.TolerableFailureRate
	rs := r5
	rs.Name = "RANA*(E-5)"
	rs.Optimized = true
	return []Design{dd, r0, r5, rs}
}

// EvaluateFixedTiling evaluates a design with the tiling pinned (the
// DaDianNao tree structure fixes ⟨64, 64, 1, 1⟩). The pinned tiling
// replaces the design's natural-tiling restriction.
func (p *Platform) EvaluateFixedTiling(d Design, net models.Network, t pattern.Tiling) (Result, error) {
	opts := p.Options(d)
	opts.NaturalTiling = false
	opts.FixedTiling = &t
	plan, err := sched.Schedule(net, d.Apply(p.Base), opts)
	if err != nil {
		return Result{}, fmt.Errorf("platform: design %s: %w", d.Name, err)
	}
	return Result{Design: d, Plan: plan}, nil
}

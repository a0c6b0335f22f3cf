// Package sim is the cycle-level simulator standing in for the paper's
// RTL simulation (§III-A; DESIGN.md §2). It walks the exact tiled loop
// nest of a computation pattern at tile granularity, advancing a cycle
// clock and recording the events the paper extracts from RTL runs:
//
//   - core-occupancy cycles (performance),
//   - on-chip buffer traffic per data type,
//   - per-region residency windows, whose maxima are the empirical data
//     lifetimes that drive refresh decisions,
//   - refresh pulses, when a memory controller is attached.
//
// One walker walks every traversal order: the RTC blocked nest, of
// which the paper's linear loop nest is the one-block case. Its outputs
// are cross-validated against the closed-form model in internal/pattern
// by this package's tests — the two are independent derivations of the
// same loop semantics.
//
// The functional mode (RunFunctional) executes small layers word by
// word through a backend's mem.Buffer, built with its refresh machinery
// by NewBuffer, and holds the output to ReferenceConv, the
// perfect-memory convolution: the one word-accurate path that
// internal/exec chains into whole networks and verify.CompareFunctional
// checks.
package sim

import (
	"fmt"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/trace"
)

// Trace is the walker's record of one layer execution.
type Trace struct {
	Layer   models.ConvLayer
	Pattern pattern.Kind
	Tiling  pattern.Tiling

	// Cycles is the total core-occupancy cycle count.
	Cycles uint64
	// ExecTime is Cycles at the configured clock.
	ExecTime time.Duration
	// BufferTraffic counts buffer words moved per data type.
	BufferTraffic pattern.Storage
	// Lifetimes are the empirical maxima of the per-region residency
	// windows observed during the walk.
	Lifetimes pattern.Lifetimes
}

// Walk executes the loop nest of one (possibly grouped) layer under a
// pattern and tiling, at tile granularity. Groups run sequentially;
// totals accumulate, lifetimes are per-group maxima (matching
// pattern.Analyze's conventions).
func Walk(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config) Trace {
	return walk(l, k, t, cfg, pattern.Linear, nil)
}

// WalkTraversal is Walk under an explicit traversal order. A blocked
// traversal walks the RTC nest — the 2nd-level loop partitioned into
// contiguous stages hoisted above the 3rd-level loop — and its folded
// residency maxima are the empirical check on
// pattern.AnalyzeTraversal's shrunk lifetimes. The linear traversal is
// the nest's one-block case, so it is Walk bit for bit.
func WalkTraversal(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config, trv pattern.Traversal) Trace {
	return walk(l, k, t, cfg, trv, nil)
}

// WalkWithTrace runs Walk while recording every buffer access burst into
// a memory-access trace (§III-A's "memory access tracing"). The trace
// carries the accelerator clock so downstream analyses can convert
// cycles to wall time.
func WalkWithTrace(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config) (Trace, *trace.Trace) {
	mem := &trace.Trace{FrequencyHz: cfg.FrequencyHz}
	return walk(l, k, t, cfg, pattern.Linear, mem), mem
}

// walk validates its inputs, splits a grouped layer into per-group
// sub-layers and walks the groups in turn under trv. When mem is
// non-nil, every buffer access burst is recorded into it.
func walk(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config, trv pattern.Traversal, mem *trace.Trace) Trace {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	if err := trv.Validate(); err != nil {
		panic(err)
	}
	g, sub := 1, l
	if l.Groups > 1 {
		g = l.Groups
		sub.N /= g
		sub.M /= g
		sub.Groups = 1
	}
	if mem != nil {
		// The tile counts determine the event count exactly; reserving
		// the whole stream up front turns the per-event Append growth
		// (the explore loop's dominant allocation) into a single slab.
		mem.Grow(g * groupEventCount(sub, k, t))
	}
	tr := Trace{Layer: l, Pattern: k, Tiling: t}
	var sc odScratch
	var clock uint64
	for i := 0; i < g; i++ {
		clock = walkGroup(&tr, sub, k, t, cfg, trv, clock, mem, &sc)
	}
	tr.Cycles = clock
	tr.ExecTime = cyclesDur(clock, cfg)
	return tr
}

// odScratch is the OD pattern's per-region bookkeeping, reused across
// the groups of one walk so grouped layers do not reallocate it per
// group. ensure resizes and clears it for a fresh group.
type odScratch struct {
	lastTouch []uint64
	touched   []bool
}

// ensure returns cleared slices covering n regions.
func (s *odScratch) ensure(n int) ([]uint64, []bool) {
	if cap(s.lastTouch) < n {
		s.lastTouch = make([]uint64, n)
		s.touched = make([]bool, n)
	}
	s.lastTouch = s.lastTouch[:n]
	s.touched = s.touched[:n]
	clear(s.touched) // lastTouch is only read where touched is set
	return s.lastTouch, s.touched
}

// groupEventCount returns the exact number of trace events one
// ungrouped-group walk emits — the mirror of walkGroup's emit calls.
func groupEventCount(l models.ConvLayer, k pattern.Kind, t pattern.Tiling) int {
	nM := ceilDiv(l.M, t.Tm)
	nN := ceilDiv(l.N, t.Tn)
	nRC := ceilDiv(l.R(), t.Tr) * ceilDiv(l.C(), t.Tc)
	switch k {
	case pattern.ID, pattern.WD:
		// Input + weight read per innermost step, output write per (m, rc).
		return 2*nM*nN*nRC + nM*nRC
	case pattern.OD:
		// Weight read per (n, m), input read per step, output write per
		// step plus a read-modify read on every revisit (n > 0).
		return nN*nM + nN*nM*nRC + nM*nRC*(2*nN-1)
	default:
		return 0 // walkGroup panics on unknown kinds before appending
	}
}

// walkGroup walks one ungrouped (sub-)layer under trv, starting at the
// given clock, and returns the advanced clock. It walks the RTC nest:
// the 2nd-level loop is cut into trv.Span's contiguous blocks and each
// block is hoisted above the 3rd-level loop. The paper's Fig. 10 nest is
// the one-block case, since Span returns a single block spanning the
// whole extent for the linear traversal. Blocking permutes the visited
// tiles without changing their multiset, so cycles and buffer traffic
// are traversal-invariant; what moves are the residency windows, which
// the folds below close at block boundaries. When mem is non-nil, every
// buffer access burst is recorded as a trace event.
func walkGroup(tr *Trace, l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config, trv pattern.Traversal, clock uint64, mem *trace.Trace, sc *odScratch) uint64 {
	emit := func(cycle uint64, op trace.Op, dt trace.DataType, addr, words uint64) {
		if mem != nil {
			mem.Append(trace.Event{Cycle: cycle, Op: op, Type: dt, Addr: addr, Words: words})
		}
	}
	nM := ceilDiv(l.M, t.Tm)
	nN := ceilDiv(l.N, t.Tn)
	nRC := ceilDiv(l.R(), t.Tr) * ceilDiv(l.C(), t.Tc)
	perTile := perTileCycles(l, t, cfg)

	inTile := uint64(t.Tn) * uint64(t.Th(l)) * uint64(t.Tl(l))
	wTile := uint64(t.Tm) * uint64(t.Tn) * uint64(l.K) * uint64(l.K)
	outTile := uint64(t.Tm) * uint64(t.Tr) * uint64(t.Tc)

	// Residency tracking. For each data type we track the open windows
	// (generation start) and close them when the generation rolls over,
	// folding the span into the lifetime maximum.
	lt := &tr.Lifetimes

	switch k {
	case pattern.ID: // order M (3rd), RC (2nd), N (1st); RC blocks hoisted above M
		blk, _ := trv.Span(nRC)
		for b0 := 0; b0 < nRC; b0 += blk {
			b1 := min(b0+blk, nRC)
			blockStart := clock // this block's inputs staged now (all of them when linear)
			for m := 0; m < nM; m++ {
				wStart := clock // this m-group's weights (re-)staged now
				for rc := b0; rc < b1; rc++ {
					for n := 0; n < nN; n++ {
						tr.BufferTraffic.Inputs += inTile
						tr.BufferTraffic.Weights += wTile
						emit(clock, trace.Read, trace.Inputs, uint64(n*nRC+rc), inTile)
						emit(clock, trace.Read, trace.Weights, uint64(m*nN+n), wTile)
						clock += perTile
					}
					// Outputs for this (m, rc) complete: stored and shipped.
					tr.BufferTraffic.Outputs += outTile
					emit(clock, trace.Write, trace.Outputs, uint64(m*nRC+rc), outTile)
				}
				foldMax(&lt.Weight, clock-wStart, cfg)
			}
			foldMax(&lt.Input, clock-blockStart, cfg)
		}
		// Output lifetime stays 0: accumulation happens in the PEs.

	case pattern.OD: // order N (3rd), M (2nd), RC (1st); M blocks hoisted above N
		// Outputs: per-region update gaps. lastTouch[m*nRC+rc] tracks
		// the previous write of each output tile region.
		blk, _ := trv.Span(nM)
		lastTouch, touched := sc.ensure(nM * nRC)
		for m0 := 0; m0 < nM; m0 += blk {
			m1 := min(m0+blk, nM)
			for n := 0; n < nN; n++ {
				slabStart := clock // this n-slab of inputs serves only this block
				for m := m0; m < m1; m++ {
					tr.BufferTraffic.Weights += wTile // loaded once per (n, m)
					emit(clock, trace.Read, trace.Weights, uint64(m*nN+n), wTile)
					for rc := 0; rc < nRC; rc++ {
						tr.BufferTraffic.Inputs += inTile
						emit(clock, trace.Read, trace.Inputs, uint64(n*nRC+rc), inTile)
						clock += perTile
						region := m*nRC + rc
						if touched[region] {
							// Read-modify-write of the partial sums; the gap
							// since the previous write is a retention window.
							tr.BufferTraffic.Outputs += 2 * outTile
							emit(clock, trace.Read, trace.Outputs, uint64(region), outTile)
							foldMax(&lt.Output, clock-lastTouch[region], cfg)
						} else {
							tr.BufferTraffic.Outputs += outTile
							touched[region] = true
						}
						emit(clock, trace.Write, trace.Outputs, uint64(region), outTile)
						lastTouch[region] = clock
					}
				}
				foldMax(&lt.Input, clock-slabStart, cfg)
			}
		}
		// Weight windows: loaded per (n, m), live across the RC loop.
		foldMax(&lt.Weight, uint64(nRC)*perTile, cfg)

	case pattern.WD: // order RC (3rd), M (2nd), N (1st); M blocks hoisted above RC
		blk, _ := trv.Span(nM)
		for m0 := 0; m0 < nM; m0 += blk {
			m1 := min(m0+blk, nM)
			blockStart := clock // this block's weights staged now
			for rc := 0; rc < nRC; rc++ {
				posStart := clock // this position's input slab loaded now
				for m := m0; m < m1; m++ {
					for n := 0; n < nN; n++ {
						tr.BufferTraffic.Inputs += inTile
						tr.BufferTraffic.Weights += wTile
						emit(clock, trace.Read, trace.Inputs, uint64(n*nRC+rc), inTile)
						emit(clock, trace.Read, trace.Weights, uint64(m*nN+n), wTile)
						clock += perTile
					}
					tr.BufferTraffic.Outputs += outTile
					emit(clock, trace.Write, trace.Outputs, uint64(m*nRC+rc), outTile)
				}
				foldMax(&lt.Input, clock-posStart, cfg)
			}
			foldMax(&lt.Weight, clock-blockStart, cfg)
		}

	default:
		panic(fmt.Sprintf("sim: unknown pattern %v", k))
	}
	return clock
}

// foldMax folds a cycle span into a lifetime maximum.
func foldMax(dst *time.Duration, cycles uint64, cfg hw.Config) {
	d := cyclesDur(cycles, cfg)
	if d > *dst {
		*dst = d
	}
}

// perTileCycles mirrors the array-mapping cycle model of internal/pattern.
func perTileCycles(l models.ConvLayer, t pattern.Tiling, cfg hw.Config) uint64 {
	switch cfg.Mapping {
	case hw.MapOutputPixel:
		return uint64(ceilDiv(t.Tm, cfg.ArrayM)) * uint64(ceilDiv(t.Tr*t.Tc, cfg.ArrayN)) *
			uint64(t.Tn) * uint64(l.K) * uint64(l.K)
	case hw.MapOutputInput:
		return uint64(ceilDiv(t.Tm, cfg.ArrayM)) * uint64(ceilDiv(t.Tn, cfg.ArrayN)) *
			uint64(t.Tr) * uint64(t.Tc) * uint64(l.K) * uint64(l.K)
	default:
		panic(fmt.Sprintf("sim: unknown mapping %v", cfg.Mapping))
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func cyclesDur(cycles uint64, cfg hw.Config) time.Duration {
	return time.Duration(float64(cycles) / cfg.FrequencyHz * float64(time.Second))
}

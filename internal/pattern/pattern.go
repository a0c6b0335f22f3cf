// Package pattern implements the three computation patterns of Fig. 10 —
// Input Dominant (ID), Output Dominant (OD) and Weight Dominant (WD) —
// together with their buffer-storage equations (Eqs. 1–3, 6–8, 11–13),
// data-lifetime equations (Eqs. 4–5, 9–10) and the buffer-access /
// off-chip-traffic / cycle-count models documented in DESIGN.md §4.
//
// A pattern is a loop ordering of the memory control part (Loops M, RC
// and N of Fig. 3b) around the fixed core computing part. The 3rd-level
// (outermost) loop decides which data type is buffer-resident for the
// whole layer and therefore which data type dominates both buffer storage
// and lifetime:
//
//	ID: M  outermost — inputs resident, input lifetime = whole layer
//	OD: N  outermost — outputs resident, self-refreshed by accumulation
//	WD: RC outermost — weights resident, inputs/outputs streamed
package pattern

import (
	"fmt"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
)

// Kind selects a computation pattern.
type Kind int

const (
	// ID is the typical input-dominant pattern of Fig. 3b / Fig. 10(a).
	ID Kind = iota
	// OD is the output-dominant pattern of Fig. 10(b), which exploits the
	// output's self-refresh property during accumulation (§IV-C1).
	OD
	// WD is the weight-dominant pattern of Fig. 10(c), which shrinks
	// buffer storage for shallow layers (§IV-C2).
	WD
)

// Kinds lists all patterns in paper order.
var Kinds = []Kind{ID, OD, WD}

// ParseKind returns the pattern whose String is name, one of Kinds.
func ParseKind(name string) (Kind, bool) {
	for _, k := range Kinds {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ID:
		return "ID"
	case OD:
		return "OD"
	case WD:
		return "WD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Tiling holds the tiling parameters ⟨Tm, Tn, Tr, Tc⟩ of the core
// computing part (Fig. 3b). Th and Tl are derived: Th=(Tr−1)S+K,
// Tl=(Tc−1)S+K.
type Tiling struct {
	Tm, Tn, Tr, Tc int
}

// String implements fmt.Stringer.
func (t Tiling) String() string {
	return fmt.Sprintf("<Tm=%d,Tn=%d,Tr=%d,Tc=%d>", t.Tm, t.Tn, t.Tr, t.Tc)
}

// Validate checks positivity.
func (t Tiling) Validate() error {
	if t.Tm <= 0 || t.Tn <= 0 || t.Tr <= 0 || t.Tc <= 0 {
		return fmt.Errorf("pattern: non-positive tiling %v", t)
	}
	return nil
}

// Th returns the input tile height for a layer: (Tr−1)·S + K.
func (t Tiling) Th(l models.ConvLayer) int { return (t.Tr-1)*l.S + l.K }

// Tl returns the input tile width for a layer: (Tc−1)·S + K.
func (t Tiling) Tl(l models.ConvLayer) int { return (t.Tc-1)*l.S + l.K }

// FitsCore reports whether the tiling satisfies the core local-storage
// constraints of Fig. 13: Tn·Th·Tl ≤ Ri, Tm·Tr·Tc ≤ Ro, Tm·Tn·K² ≤ Rw.
func (t Tiling) FitsCore(l models.ConvLayer, cfg hw.Config) bool {
	return t.Tn*t.Th(l)*t.Tl(l) <= cfg.LocalInput &&
		t.Tm*t.Tr*t.Tc <= cfg.LocalOutput &&
		t.Tm*t.Tn*l.K*l.K <= cfg.LocalWeight
}

// Traversal selects the tile traversal order of a pattern's memory
// control loops. The zero value (Linear) is the paper's nest exactly as
// Fig. 10 writes it. Blocks > 1 requests an RTC-style blocked walk
// (Refresh Triggered Computation): the 2nd-level loop is partitioned
// into up to Blocks contiguous stages and each stage is hoisted above
// the 3rd-level loop, so data staged for a block is consumed before its
// retention deadline instead of being refreshed. Re-staged data
// restarts its retention clock, which is why the blocked analysis both
// shrinks lifetimes and charges the extra off-chip reloads — the two
// are physically inseparable.
type Traversal struct {
	// Blocks is the requested number of 2nd-level loop stages. 0 and 1
	// both mean the linear nest; values above the loop extent clamp.
	Blocks int
}

// Linear is the default traversal: the unmodified Fig. 10 loop nest.
var Linear = Traversal{}

// IsLinear reports whether the traversal is the unmodified nest.
func (tr Traversal) IsLinear() bool { return tr.Blocks <= 1 }

// String implements fmt.Stringer.
func (tr Traversal) String() string {
	if tr.IsLinear() {
		return "linear"
	}
	return fmt.Sprintf("blocked%d", tr.Blocks)
}

// Validate checks the traversal is representable.
func (tr Traversal) Validate() error {
	if tr.Blocks < 0 {
		return fmt.Errorf("pattern: negative traversal blocks %d", tr.Blocks)
	}
	return nil
}

// Span splits a 2nd-level loop extent into the traversal's contiguous
// blocks: blk is the span of every full block (the last may be short)
// and nBlocks the number of blocks actually realized — which can be
// fewer than requested (extent 6 at Blocks=4 gives spans of 2, so 3
// blocks). The analysis and the cycle walker both derive their blocking
// from this one function so the two can never disagree.
func (tr Traversal) Span(extent int) (blk, nBlocks int) { return blockSpan(extent, tr.Blocks) }

// blockSpan splits an extent into at most b contiguous blocks of equal
// span (the last may be short). blk is the span of every full block and
// nBlocks the number of blocks actually produced — which can be fewer
// than requested (extent 6 at b=4 gives spans of 2, so 3 blocks).
func blockSpan(extent, b int) (blk, nBlocks int) {
	if b > extent {
		b = extent
	}
	if b <= 1 || extent <= 1 {
		return extent, 1
	}
	blk = ceilDiv(extent, b)
	return blk, ceilDiv(extent, blk)
}

// Storage is a per-data-type word count (buffer storage or traffic).
type Storage struct {
	Inputs, Outputs, Weights uint64
}

// Total sums the three components.
func (s Storage) Total() uint64 { return s.Inputs + s.Outputs + s.Weights }

// Lifetimes holds per-data-type buffer lifetimes. A zero lifetime means
// the data never rests in the buffer long enough to need refresh (e.g.
// outputs under ID, which accumulate in the PEs and leave immediately).
type Lifetimes struct {
	Input, Output, Weight time.Duration
}

// Max returns the longest of the three lifetimes.
func (lt Lifetimes) Max() time.Duration {
	m := lt.Input
	if lt.Output > m {
		m = lt.Output
	}
	if lt.Weight > m {
		m = lt.Weight
	}
	return m
}

// Analysis is the full analytical characterization of running one layer
// under one pattern and tiling on one accelerator: everything the RANA
// scheduler's energy model (Eq. 14) and refresh accounting need.
type Analysis struct {
	Layer     models.ConvLayer
	Pattern   Kind
	Tiling    Tiling
	Traversal Traversal

	// MACs is α: the layer's useful multiply-accumulate count.
	MACs uint64
	// Cycles is the core-occupancy cycle count including tile padding.
	Cycles uint64
	// ExecTime is Cycles at the accelerator clock (× group count).
	ExecTime time.Duration
	// Utilization is η = MACs / (PEs · Cycles).
	Utilization float64

	// BufferStorage is the on-chip storage requirement (Eqs. 1–3 / 6–8 /
	// 11–13). FitsBuffer reports BufferStorage.Total() ≤ capacity.
	BufferStorage Storage
	FitsBuffer    bool
	// Feasible reports whether the pattern's streaming working set fits
	// the buffer at all; infeasible candidates cannot execute and the
	// scheduler skips them.
	Feasible bool

	// Lifetimes are the per-data-type buffer lifetimes (Eqs. 4–5 / 9–10).
	Lifetimes Lifetimes

	// BufferTraffic counts on-chip buffer accesses (reads+writes) per
	// data type; its Total is βb.
	BufferTraffic Storage
	// DDRTraffic counts off-chip accesses per data type, including the
	// pattern's spill/reload penalty when FitsBuffer is false; its Total
	// is βd.
	DDRTraffic Storage

	// BufferWrites counts the words written into the on-chip buffer's
	// cell array: every off-chip fill (inputs, weights, and spilled
	// partial sums reloaded) plus the core's output stores — for OD's
	// read-modify-write accumulation, the store half of each pass. It
	// is the exposure a wear-prone memory technology (ReRAM) ages by;
	// the Eq. 14 traffic totals above are unaffected.
	BufferWrites uint64
}

// Analyze characterizes a layer under a pattern and tiling. Grouped
// convolutions are modeled as their groups run sequentially: per-group
// sub-problems are analyzed and totals scaled, while storage requirements
// and lifetimes are the per-group values (only one group is live at a
// time). Invalid layers, tilings, patterns and array mappings are
// reported as errors: analysis inputs reach this package from request
// bodies (via the scheduler behind ranad), so malformed input is a
// caller problem, not a process-fatal bug.
func Analyze(l models.ConvLayer, k Kind, t Tiling, cfg hw.Config) (Analysis, error) {
	return AnalyzeTraversal(l, k, t, cfg, Linear)
}

// AnalyzeTraversal is Analyze under an explicit traversal order. The
// linear traversal reproduces Analyze bit for bit; a blocked traversal
// shrinks the staged data's lifetimes and charges the re-staging DDR
// traffic (see Traversal). Cycles, buffer storage and feasibility are
// traversal-invariant: blocking permutes the visit order of the same
// tile set.
func AnalyzeTraversal(l models.ConvLayer, k Kind, t Tiling, cfg hw.Config, trv Traversal) (Analysis, error) {
	var a Analysis
	if err := AnalyzeTraversalInto(&a, &l, k, t, &cfg, trv); err != nil {
		return Analysis{}, err
	}
	return a, nil
}

// AnalyzeTraversalInto is AnalyzeTraversal writing into a caller-owned
// Analysis, with the layer and configuration read through pointers:
// the same checks in the same order, the same error text, the same
// result bits. It is the exact evaluator's per-candidate form — the
// value form copies the layer, the configuration and the several-
// hundred-byte result on every call. Every field of *a is overwritten
// on success, so a destination reused from another candidate never
// leaks state; on an error *a is left untouched.
func AnalyzeTraversalInto(a *Analysis, l *models.ConvLayer, k Kind, t Tiling, cfg *hw.Config, trv Traversal) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if err := trv.Validate(); err != nil {
		return err
	}
	switch k {
	case ID, OD, WD:
	default:
		return fmt.Errorf("pattern: unknown kind %d", int(k))
	}
	switch cfg.Mapping {
	case hw.MapOutputPixel, hw.MapOutputInput:
	default:
		return fmt.Errorf("pattern: unknown mapping %v", cfg.Mapping)
	}
	analyzeInto(a, l, k, t, cfg, trv)
	return nil
}

// MustAnalyze is Analyze for inputs known valid by construction — tests,
// report generators and benchmark sweeps over the built-in models. It
// panics on error.
func MustAnalyze(l models.ConvLayer, k Kind, t Tiling, cfg hw.Config) Analysis {
	a, err := Analyze(l, k, t, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// analyzeInto does the real work on the layer's per-group sub-problem
// and scales whole-layer totals by the group count g. The sub-layer is
// never materialized: its shape is read field by field into locals,
// because ConvLayer's and Tiling's value-receiver helpers (R, C, MACs,
// the word counts, Th, Tl) copy the whole layer on every call, even
// inlined. The locals spell the same formulas; the reported Layer is
// the caller's layer, grouped as given.
func analyzeInto(a *Analysis, l *models.ConvLayer, k Kind, t Tiling, cfg *hw.Config, trv Traversal) {
	g := 1
	if l.Groups > 1 {
		g = l.Groups
	}
	// The per-group sub-layer: N/g input channels, M/g kernels.
	N, M := l.N/g, l.M/g
	H, L, K, S := l.H, l.L, l.K, l.S
	R := (H+2*l.P-K)/S + 1
	C := (L+2*l.P-K)/S + 1
	kk := uint64(K) * uint64(K)
	nM := ceilDiv(M, t.Tm)
	nN := ceilDiv(N, t.Tn)
	nR := ceilDiv(R, t.Tr)
	nC := ceilDiv(C, t.Tc)
	th, tl := (t.Tr-1)*S+K, (t.Tc-1)*S+K
	bufWords := cfg.BufferWords

	// Core tile time depends on the array's spatial mapping (hw.Mapping):
	// spatial loop dimensions are ceil-divided over array lanes, temporal
	// ones multiply the cycle count; tile padding is included.
	var perTile uint64
	switch cfg.Mapping {
	case hw.MapOutputPixel:
		// Tm spatial over ArrayM rows, Tr·Tc pixels spatial over ArrayN
		// columns; Tn and K² temporal.
		perTile = uint64(ceilDiv(t.Tm, cfg.ArrayM)) * uint64(ceilDiv(t.Tr*t.Tc, cfg.ArrayN)) *
			uint64(t.Tn) * kk
	case hw.MapOutputInput:
		// Tm spatial over ArrayM, Tn spatial over ArrayN; Tr, Tc and K²
		// temporal.
		perTile = uint64(ceilDiv(t.Tm, cfg.ArrayM)) * uint64(ceilDiv(t.Tn, cfg.ArrayN)) *
			uint64(t.Tr) * uint64(t.Tc) * kk
	default:
		// Invariant: AnalyzeTraversalInto validated the mapping first.
		panic(fmt.Sprintf("pattern: unknown mapping %v", cfg.Mapping))
	}
	tiles := uint64(nM) * uint64(nN) * uint64(nR) * uint64(nC)
	subCycles := tiles * perTile
	cycles := subCycles * uint64(g)

	// The sub-layer's MAC count M·N·R·C·K², scaled to the whole layer.
	macs := uint64(M) * uint64(N) * uint64(R) * uint64(C) * kk * uint64(g)

	// Per-tile transfer sizes (words).
	inTile := uint64(t.Tn) * uint64(th) * uint64(tl)
	wTile := uint64(t.Tm) * uint64(t.Tn) * kk
	outTile := uint64(t.Tm) * uint64(t.Tr) * uint64(t.Tc)

	// Whole-(sub)layer data volumes.
	din := uint64(N) * uint64(H) * uint64(L)
	dw := uint64(M) * uint64(N) * kk
	dout := uint64(M) * uint64(R) * uint64(C)

	a.Layer = *l
	a.Pattern = k
	a.Tiling = t
	a.Traversal = trv
	a.MACs = macs
	a.Cycles = cycles
	a.ExecTime = cyclesDur(cycles, cfg.FrequencyHz)
	// η = MACs / (PEs · Cycles), PEs = ArrayM·ArrayN.
	a.Utilization = float64(macs) / (float64(cfg.ArrayM*cfg.ArrayN) * float64(cycles))

	// Loop-level times for the sub-layer, in whole cycles. T1/T2/T3 are
	// the completed durations of the 1st/2nd/3rd-level loops (Fig. 10);
	// t3 always equals the sub-layer's total cycle count.
	var t1, t2, t3 uint64

	switch k {
	case ID: // order: M (3rd), RC (2nd), N (1st)
		t1 = uint64(nN) * perTile
		t2 = uint64(nR*nC) * t1
		t3 = uint64(nM) * t2
		a.BufferStorage = Storage{
			Inputs:  din,                           // Eq. 1
			Outputs: outTile,                       // Eq. 2
			Weights: uint64(N) * uint64(t.Tm) * kk, // Eq. 3
		}
		a.Lifetimes = Lifetimes{
			Input:  cyclesDur(t3, cfg.FrequencyHz), // Eq. 4
			Weight: cyclesDur(t2, cfg.FrequencyHz), // Eq. 5
			Output: 0,                              // accumulated in PEs, stored then shipped (§III-B2)
		}
		a.BufferTraffic = Storage{
			Inputs:  tiles * inTile,
			Weights: tiles * wTile,
			Outputs: uint64(nM*nR*nC) * outTile,
		}
		// The streaming working set (current kernel group's weights plus
		// the output tile) must fit outright; inputs enjoy cross-Loop-M
		// reuse only when everything fits (Eq. 1), otherwise the whole
		// input set reloads once per output group ([11]-style model).
		a.Feasible = a.BufferStorage.Weights+a.BufferStorage.Outputs <= bufWords
		a.DDRTraffic = Storage{Inputs: din, Weights: dw, Outputs: dout}
		if !fits(a.BufferStorage, bufWords) {
			a.DDRTraffic.Inputs = uint64(nM) * din
		}

	case OD: // order: N (3rd), M (2nd), RC (1st)
		t1 = uint64(nR*nC) * perTile
		t2 = uint64(nM) * t1
		t3 = uint64(nN) * t2
		a.BufferStorage = Storage{
			Inputs:  uint64(t.Tn) * uint64(H) * uint64(L), // Eq. 6
			Outputs: dout,                                 // Eq. 7
			Weights: wTile,                                // Eq. 8
		}
		a.Lifetimes = Lifetimes{
			Input:  cyclesDur(t2, cfg.FrequencyHz), // Eq. 9
			Output: cyclesDur(t2, cfg.FrequencyHz), // Eq. 9 — self-refreshed every T2 by accumulation
			Weight: cyclesDur(t1, cfg.FrequencyHz), // Eq. 10
		}
		if nN == 1 {
			// A single input pass fully accumulates each output tile in
			// the core; outputs are stored once and shipped, like ID.
			a.Lifetimes.Output = 0
		}
		// Weights stay in core local storage across the innermost RC
		// loop, so each (m, n) weight tile is read from the buffer once.
		a.BufferTraffic = Storage{
			Inputs:  tiles * inTile,
			Weights: uint64(nN*nM) * wTile,
			Outputs: uint64(2*nN-1) * uint64(nM*nR*nC) * outTile,
		}
		// The streaming working set (current input slab plus a weight
		// tile and an output tile) must fit outright; outputs enjoy
		// on-chip accumulation only when everything fits (Eq. 7),
		// otherwise partial sums spill once per remaining input pass.
		a.Feasible = a.BufferStorage.Inputs+a.BufferStorage.Weights+outTile <= bufWords
		a.DDRTraffic = Storage{Inputs: din, Weights: dw, Outputs: dout}
		if !fits(a.BufferStorage, bufWords) {
			a.DDRTraffic.Outputs = dout + 2*uint64(nN-1)*dout
		}

	case WD: // order: RC (3rd), M (2nd), N (1st)
		t1 = uint64(nN) * perTile
		t2 = uint64(nM) * t1
		t3 = uint64(nR*nC) * t2
		a.BufferStorage = Storage{
			Inputs:  uint64(N) * uint64(th) * uint64(tl), // Eq. 11
			Outputs: outTile,                             // Eq. 12
			Weights: dw,                                  // Eq. 13
		}
		a.Lifetimes = Lifetimes{
			Weight: cyclesDur(t3, cfg.FrequencyHz), // weights resident for the whole layer
			Input:  cyclesDur(t2, cfg.FrequencyHz), // an input tile serves all M kernels
			Output: 0,                              // finished within T1, shipped off chip
		}
		a.BufferTraffic = Storage{
			Inputs:  tiles * inTile,
			Weights: tiles * wTile,
			Outputs: uint64(nM*nR*nC) * outTile,
		}
		// The streaming working set (input slab, weight tile, output
		// tile) must fit outright. Inputs are fetched from DDR once when
		// the whole input set also fits the unified buffer alongside the
		// resident weights (the halo re-reads then hit the buffer, which
		// BufferTraffic already counts); otherwise input tiles stream
		// from DDR with halo overlap. Weights enjoy whole-layer residency
		// per Eq. 13 unless the storage requirement overflows, in which
		// case they reload per tile position.
		a.Feasible = a.BufferStorage.Inputs+a.BufferStorage.Outputs+wTile <= bufWords
		haloIn := uint64(nR*nC) * uint64(N) * uint64(th) * uint64(tl)
		switch {
		case a.BufferStorage.Weights+a.BufferStorage.Outputs+din <= bufWords:
			a.DDRTraffic = Storage{Inputs: din, Weights: dw, Outputs: dout}
		case fits(a.BufferStorage, bufWords):
			a.DDRTraffic = Storage{Inputs: haloIn, Weights: dw, Outputs: dout}
		default:
			a.DDRTraffic = Storage{Inputs: haloIn, Weights: uint64(nR*nC) * dw, Outputs: dout}
		}

	default:
		// Invariant: AnalyzeTraversalInto validated the kind first.
		panic(fmt.Sprintf("pattern: unknown kind %d", int(k)))
	}

	// RTC blocked traversal: partition the 2nd-level loop into stages
	// hoisted above the 3rd-level loop. Staged data is consumed within
	// its stage — lifetimes shrink from the 3rd-level span to the staged
	// span — and re-staged data reloads from DDR, which the traffic
	// terms below charge. Cycles, storage, feasibility and buffer
	// traffic are conservative and traversal-invariant: the same tiles
	// are visited, only their order changes. The DDR multipliers use the
	// realized block count (blockSpan clamps), never the requested one,
	// so analysis matches the walker's actual refill count.
	if b := trv.Blocks; b > 1 {
		switch k {
		case ID: // blocked nest: RC_blk (3rd), M, RC_in, N
			blk, nBlocks := blockSpan(nR*nC, b)
			if nBlocks > 1 {
				// A block's inputs stay staged across the whole M loop;
				// each m's weights reload per block.
				a.Lifetimes.Input = cyclesDur(uint64(nM)*uint64(blk)*t1, cfg.FrequencyHz)
				a.Lifetimes.Weight = cyclesDur(uint64(blk)*t1, cfg.FrequencyHz)
				// Inputs stage per RC position with halo overlap — an
				// upper bound on the sum of block footprints, independent
				// of the block count, and ≥ din.
				a.DDRTraffic.Inputs = uint64(nR*nC) * uint64(N) * uint64(th) * uint64(tl)
				a.DDRTraffic.Weights = uint64(nBlocks) * dw
			}
		case OD: // blocked nest: M_blk (3rd), N, M_in, RC
			blk, nBlocks := blockSpan(nM, b)
			if nBlocks > 1 {
				// An input slab serves one block per pass; outputs of a
				// block self-refresh every pass over the block and finish
				// (then ship) when the block's nN passes complete.
				a.Lifetimes.Input = cyclesDur(uint64(blk)*t1, cfg.FrequencyHz)
				if nN > 1 {
					a.Lifetimes.Output = cyclesDur(uint64(blk)*t1, cfg.FrequencyHz)
				}
				a.DDRTraffic.Inputs = uint64(nBlocks) * din
			}
		case WD: // blocked nest: M_blk (3rd), RC, M_in, N
			blk, nBlocks := blockSpan(nM, b)
			if nBlocks > 1 {
				// A block's weights stay staged across the whole RC loop;
				// an input tile serves only the block's kernels before
				// re-streaming for the next block.
				a.Lifetimes.Weight = cyclesDur(uint64(nR*nC)*uint64(blk)*t1, cfg.FrequencyHz)
				a.Lifetimes.Input = cyclesDur(uint64(blk)*t1, cfg.FrequencyHz)
				a.DDRTraffic.Inputs *= uint64(nBlocks)
			}
		}
	}
	a.FitsBuffer = fits(a.BufferStorage, bufWords)

	// Words written into the buffer array: every DDR fill lands in the
	// buffer (the per-type DDR input/weight terms already carry the
	// reload multipliers), plus the core's output stores. For ID/WD the
	// store count is exactly BufferTraffic.Outputs; OD's (2·nN−1) RMW
	// traffic splits into nN stores and nN−1 reads per output word, and
	// a spilled partial sum is rewritten into the buffer on each of its
	// nN−1 reloads.
	outWrites := a.BufferTraffic.Outputs
	if k == OD {
		outWrites = uint64(nN) * uint64(nM*nR*nC) * outTile
		if !fits(a.BufferStorage, bufWords) {
			outWrites += uint64(nN-1) * dout
		}
	}
	a.BufferWrites = a.DDRTraffic.Inputs + a.DDRTraffic.Weights + outWrites

	// Scale whole-layer traffic totals by the group count; storage and
	// lifetimes stay per-group (groups run sequentially).
	if g > 1 {
		a.BufferTraffic = scaleStorage(a.BufferTraffic, uint64(g))
		a.DDRTraffic = scaleStorage(a.DDRTraffic, uint64(g))
		a.BufferWrites *= uint64(g)
	}
}

func fits(s Storage, bufferWords uint64) bool { return s.Total() <= bufferWords }

func scaleStorage(s Storage, k uint64) Storage {
	return Storage{Inputs: s.Inputs * k, Outputs: s.Outputs * k, Weights: s.Weights * k}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// cyclesDur converts a cycle count to wall time at the accelerator clock.
func cyclesDur(cycles uint64, hz float64) time.Duration {
	return time.Duration(float64(cycles) / hz * float64(time.Second))
}

// Package memctrl implements the two eDRAM refresh controllers the paper
// compares (§IV-D, Table IV "Memory Controller" column):
//
//   - Conventional: every bank is refreshed at the same rate whenever any
//     on-chip data needs retention — the pessimistic baseline whose waste
//     grows with buffer capacity (Fig. 18a).
//   - RefreshOptimized: RANA's controller (Fig. 14) with a programmable
//     clock divider and per-bank refresh flags; only banks holding data
//     whose lifetime reaches the tolerable retention time are refreshed,
//     and unused banks never are (Fig. 18b).
//
// The package provides both the analytic accounting used by the energy
// model (word-refresh counts, the γ of Eq. 14) and a tick-level
// functional model (Divider + Issuer) exercised against the eDRAM buffer
// in tests.
package memctrl

import (
	"fmt"
	"math"
	"time"

	"rana/internal/pattern"
)

// Needs captures which data types of the current layer hold data whose
// buffer lifetime reaches or exceeds the refresh interval — the per-layer
// refresh flags Stage 2 compiles into the layerwise configuration.
type Needs struct {
	Inputs, Outputs, Weights bool
}

// Any reports whether any data type needs refresh.
func (n Needs) Any() bool { return n.Inputs || n.Outputs || n.Weights }

// NeedsFor derives the refresh needs from a layer's data lifetimes and
// the refresh interval: a data type needs refresh iff its lifetime is not
// shorter than the interval ("Data Lifetime < Retention Time" avoids
// refresh, §III-C).
func NeedsFor(lt pattern.Lifetimes, interval time.Duration) Needs {
	return Needs{
		Inputs:  lt.Input >= interval,
		Outputs: lt.Output >= interval,
		Weights: lt.Weight >= interval,
	}
}

// Allocation is the unified buffer system's bank assignment for one layer
// (§IV-D1): whole banks per data type, sized from the pattern's buffer
// storage requirement.
type Allocation struct {
	InputBanks, OutputBanks, WeightBanks int
}

// Total returns the number of allocated banks.
func (a Allocation) Total() int { return a.InputBanks + a.OutputBanks + a.WeightBanks }

// Allocate maps a buffer storage requirement onto whole banks, capping at
// totalBanks (an oversubscribed layer simply fills the buffer; the spill
// traffic is already accounted by the pattern's DDR model).
func Allocate(bs pattern.Storage, bankWords, totalBanks int) Allocation {
	if bankWords <= 0 {
		// Invariant, not input validation: every caller reaches here via
		// hw.Config.Validate (which rejects non-positive bank sizes), so a
		// violation is a programming error in this repo.
		panic("memctrl: non-positive bank size")
	}
	banksFor := func(words uint64) int {
		return int((words + uint64(bankWords) - 1) / uint64(bankWords))
	}
	a := Allocation{
		InputBanks:  banksFor(bs.Inputs),
		OutputBanks: banksFor(bs.Outputs),
		WeightBanks: banksFor(bs.Weights),
	}
	if a.Total() <= totalBanks {
		return a
	}
	// Oversubscribed: shrink proportionally, keeping at least one bank
	// for every data type that demanded storage (the spilled remainder is
	// priced as DDR traffic by the pattern model, but whatever stays
	// on chip still needs refresh accounting).
	demands := []*int{&a.InputBanks, &a.OutputBanks, &a.WeightBanks}
	total := a.Total()
	assigned := 0
	for _, p := range demands {
		if *p == 0 {
			continue
		}
		scaled := *p * totalBanks / total
		if scaled < 1 {
			scaled = 1
		}
		*p = scaled
		assigned += scaled
	}
	// Trim any excess introduced by the ≥1 floors, largest first; with
	// more demanding types than banks, some type ends with none.
	for assigned > totalBanks {
		largest := demands[0]
		for _, p := range demands[1:] {
			if *p > *largest {
				largest = p
			}
		}
		if *largest == 0 {
			break
		}
		*largest--
		assigned--
	}
	return a
}

// Pulses returns how many refresh pulses fire during an execution window
// at the given interval: one pulse per full interval elapsed.
func Pulses(exec, interval time.Duration) uint64 {
	if interval <= 0 {
		// Invariant: schedulers only call Pulses with intervals derived
		// from retention anchors or validated Options; non-positive means
		// a corrupted caller, not bad user input.
		panic("memctrl: non-positive refresh interval")
	}
	if exec <= 0 {
		return 0
	}
	return uint64(exec / interval)
}

// Controller computes how many 16-bit words are refreshed on one refresh
// pulse, given the layer's bank allocation and refresh needs on a buffer
// of totalBanks × bankWords.
//
// Contract: WordsPerPulse never increases when a Needs flag clears or an
// allocated bank count drops, the buffer geometry fixed. Both
// controllers here meet it, and the scheduler's retention-parametric
// memo relies on it: a longer refresh interval only clears flags, and a
// candidate with fewer banks and no more flags than another never pays
// more refresh per pulse (TestWordsPerPulseMonotone pins it).
type Controller interface {
	// Name identifies the controller in reports ("Normal"/"Optimized",
	// matching Table IV).
	Name() string
	// WordsPerPulse returns the per-pulse refresh word count.
	WordsPerPulse(alloc Allocation, needs Needs, totalBanks, bankWords int) uint64
}

// Conventional refreshes every bank — used or not — whenever any resident
// data needs retention. SRAM designs simply never construct a controller.
type Conventional struct{}

// Name implements Controller.
func (Conventional) Name() string { return "Normal" }

// WordsPerPulse implements Controller: all capacity words if anything
// needs refresh, zero otherwise.
func (Conventional) WordsPerPulse(_ Allocation, needs Needs, totalBanks, bankWords int) uint64 {
	if !needs.Any() {
		return 0
	}
	return uint64(totalBanks) * uint64(bankWords)
}

// RefreshOptimized is RANA's controller: per-bank refresh flags restrict
// refresh to banks allocated to data types that need it.
type RefreshOptimized struct{}

// Name implements Controller.
func (RefreshOptimized) Name() string { return "Optimized" }

// WordsPerPulse implements Controller.
func (RefreshOptimized) WordsPerPulse(alloc Allocation, needs Needs, _, bankWords int) uint64 {
	banks := 0
	if needs.Inputs {
		banks += alloc.InputBanks
	}
	if needs.Outputs {
		banks += alloc.OutputBanks
	}
	if needs.Weights {
		banks += alloc.WeightBanks
	}
	return uint64(banks) * uint64(bankWords)
}

// RefreshWords returns the total γ contribution of one layer: pulses
// during its execution times the controller's per-pulse word count.
func RefreshWords(c Controller, exec, interval time.Duration,
	alloc Allocation, needs Needs, totalBanks, bankWords int) uint64 {
	return Pulses(exec, interval) * c.WordsPerPulse(alloc, needs, totalBanks, bankWords)
}

// --- Tick-level functional model (Fig. 14) ---

// BankRefresher is the buffer-side interface the functional controller
// drives; *edram.Buffer implements it.
type BankRefresher interface {
	RefreshBank(bank int, now time.Duration) uint64
	Banks() int
}

// Divider is the programmable clock divider of Fig. 14: it divides the
// accelerator reference clock down to the refresh pulse period, which
// Stage 3 programs to the tolerable retention time.
type Divider struct {
	refHz float64
	ratio uint64
}

// NewDivider returns a divider for the given reference clock and target
// pulse period. The achieved period is quantized to whole reference
// cycles, never exceeding the requested period (refresh must not arrive
// late).
func NewDivider(refHz float64, period time.Duration) (*Divider, error) {
	if refHz <= 0 {
		return nil, fmt.Errorf("memctrl: non-positive reference clock %g", refHz)
	}
	if period <= 0 {
		return nil, fmt.Errorf("memctrl: non-positive refresh period %v", period)
	}
	ratio := uint64(math.Floor(period.Seconds() * refHz))
	if ratio == 0 {
		return nil, fmt.Errorf("memctrl: period %v shorter than one reference cycle", period)
	}
	return &Divider{refHz: refHz, ratio: ratio}, nil
}

// Ratio returns the division ratio in reference cycles.
func (d *Divider) Ratio() uint64 { return d.ratio }

// Period returns the achieved refresh pulse period.
func (d *Divider) Period() time.Duration {
	return time.Duration(float64(d.ratio) / d.refHz * float64(time.Second))
}

// Issuer is the per-bank refresh issuer array of Fig. 14: at each divider
// pulse it refreshes exactly the banks whose flag is set.
type Issuer struct {
	div     *Divider
	flags   []bool
	issued  uint64
	nextDue time.Duration
}

// NewIssuer returns an issuer over banks flags driven by divider div.
// Initially all flags are clear.
func NewIssuer(div *Divider, banks int) (*Issuer, error) {
	if div == nil {
		return nil, fmt.Errorf("memctrl: nil divider")
	}
	if banks <= 0 {
		return nil, fmt.Errorf("memctrl: non-positive bank count %d", banks)
	}
	return &Issuer{div: div, flags: make([]bool, banks), nextDue: div.Period()}, nil
}

// SetFlags loads a layer's refresh flags ("When the current layer is
// completed, the next layer's refresh flags will be loaded", §IV-D2).
// Its length must match the bank count.
func (is *Issuer) SetFlags(flags []bool) error {
	if len(flags) != len(is.flags) {
		return fmt.Errorf("memctrl: got %d flags for %d banks", len(flags), len(is.flags))
	}
	copy(is.flags, flags)
	return nil
}

// Flags returns a copy of the current refresh flags.
func (is *Issuer) Flags() []bool {
	out := make([]bool, len(is.flags))
	copy(out, is.flags)
	return out
}

// AdvanceTo advances simulated time to now, firing every refresh pulse
// due in between against buf, and returns the number of word-refresh
// operations issued in this call.
func (is *Issuer) AdvanceTo(now time.Duration, buf BankRefresher) uint64 {
	if buf.Banks() != len(is.flags) {
		panic(fmt.Sprintf("memctrl: issuer has %d flags but buffer has %d banks", len(is.flags), buf.Banks()))
	}
	var words uint64
	for is.nextDue <= now {
		for bank, on := range is.flags {
			if on {
				words += buf.RefreshBank(bank, is.nextDue)
			}
		}
		is.nextDue += is.div.Period()
	}
	is.issued += words
	return words
}

// Issued returns the cumulative word-refresh count.
func (is *Issuer) Issued() uint64 { return is.issued }

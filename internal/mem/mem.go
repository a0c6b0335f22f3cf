// Package mem defines the pluggable memory-technology backend interface
// behind RANA's buffer and off-chip models. The paper hard-wires one
// technology pair — eDRAM on chip (refresh-optimized), DDR3 off chip —
// but the scheduling scheme only ever consumes a small contract: an
// energy table for Eq. 14, refresh semantics plus a retention/error
// model for the refresh decision, and a functional failure injector for
// word-accurate validation. This package names that contract (Backend),
// enumerates discrete operating points per backend (OperatingPoint — the
// EDEN-style voltage/latency steps that become a search axis), and keeps
// a registry so the scheduler, the serving API and the CLIs address
// technologies by name.
//
// The default backends ("edram" for eDRAM configs, "sram" for SRAM
// configs) adapt internal/edram and internal/sram with the exact Table
// II/III constants at a single nominal operating point, so scheduling
// through the backend seam is bit-identical to the historical
// hard-wired path — the golden schedules and internal/verify oracles
// pin that. The "approx-dram" backend adds EDEN-style reduced-voltage
// points (cheaper accesses, shorter retention, nonzero bit-error rate);
// the "reram" backend is a Hamun-style non-volatile technology whose
// operating points charge an ageing cost per buffer write.
package mem

import (
	"fmt"
	"time"

	"rana/internal/energy"
	"rana/internal/fixed"
	"rana/internal/retention"
)

// Nominal is the name every backend gives its first operating point:
// the technology's datasheet corner, the one the default scheduling
// path prices. Normalization collapses it onto the empty spelling so
// cache keys and memo keys do not fork on "@nominal".
const Nominal = "nominal"

// Role classifies where in the memory hierarchy a backend sits.
type Role int

const (
	// RoleBuffer backends implement the on-chip unified buffer; they
	// are what the scheduler's operating-point axis ranges over.
	RoleBuffer Role = iota
	// RoleOffChip backends implement the off-chip store (DDR3). They
	// appear in the catalog but cannot be selected as a buffer.
	RoleOffChip
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleBuffer:
		return "buffer"
	case RoleOffChip:
		return "offchip"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// OperatingPoint is one discrete (voltage, timing) corner of a memory
// technology — the unit the search engine enumerates. All energies are
// per 16-bit word, matching Table III's units.
type OperatingPoint struct {
	// Name identifies the point within its backend ("nominal", "v0.8").
	Name string
	// AccessPJ prices one buffer access (the βb coefficient's unit).
	AccessPJ float64
	// RefreshPJ prices one word refresh; zero for non-refreshing
	// technologies.
	RefreshPJ float64
	// WearPJ is the amortized ageing cost per buffer write (Hamun-style
	// wear accounting); zero for wear-free technologies.
	WearPJ float64
	// RetentionScale multiplies the technology's retention curve (and
	// therefore the schedule's refresh interval): reduced-voltage DRAM
	// cells leak from a lower charge, so retention shrinks (< 1).
	// Exactly 1 at nominal.
	RetentionScale float64
	// BitErrorRate is the raw per-bit error rate the point exhibits
	// when refreshed at its scaled interval — the resilience-curve
	// input EDEN gates points by. Points whose rate exceeds the
	// scheduler's error budget are excluded from the search space.
	BitErrorRate float64
	// LatencyNS is the per-access latency, informational (the cycle
	// model keeps the paper's fixed pipeline).
	LatencyNS float64
}

// Table projects the point onto the Eq. 14 pricing table. The nominal
// points of the default backends project onto exactly the BufferTech
// constants, which is what keeps backend-priced plans bit-identical to
// the historical path.
func (p OperatingPoint) Table() energy.Table {
	return energy.Table{AccessPJ: p.AccessPJ, RefreshPJ: p.RefreshPJ, WearPJ: p.WearPJ}
}

// Buffer is the functional word store, the one interface the
// word-accurate path reads and writes through: a backend builds one as
// its failure injector (NewBuffer), sim.RunFunctional executes layers on
// it and fault.Wrap overlays stuck bit flips on it. *edram.Buffer and
// *sram.Buffer implement it.
type Buffer interface {
	Read(addr int, now time.Duration) fixed.Word
	Write(addr int, w fixed.Word, now time.Duration)
	Words() int
}

// Backend is one memory technology: an energy table per operating
// point, refresh semantics, a retention/error model, and a functional
// failure injector. Implementations must be stateless value types —
// one Backend serves every scheduler and request concurrently.
type Backend interface {
	// Name is the registry key ("edram", "approx-dram", ...).
	Name() string
	// Description is the one-line catalog blurb.
	Description() string
	// Role reports where the backend sits in the hierarchy.
	Role() Role
	// Refreshes reports whether the technology loses charge and needs
	// periodic refresh — the predicate the scheduler's refresh
	// accounting keys on (the historical BufferTech == EDRAM test).
	Refreshes() bool
	// Points enumerates the operating points, nominal first. At least
	// one; order is the canonical search enumeration order.
	Points() []OperatingPoint
	// BankAreaMM2 is the 32 KB bank area (Table II's axis).
	BankAreaMM2() float64
	// Retention returns the retention-time distribution at a point —
	// the error model driving both the refresh decision and the
	// functional injector. Non-refreshing backends return (nil, nil).
	Retention(p OperatingPoint) (*retention.Distribution, error)
	// NewBuffer builds the functional failure injector at a point.
	// Off-chip backends return an error.
	NewBuffer(banks, wordsPerBank int, seed uint64, p OperatingPoint) (Buffer, error)
}

// PointByName resolves an operating point on a backend. The empty name
// selects the nominal (first) point.
func PointByName(b Backend, name string) (OperatingPoint, bool) {
	pts := b.Points()
	if name == "" {
		return pts[0], true
	}
	for _, p := range pts {
		if p.Name == name {
			return p, true
		}
	}
	return OperatingPoint{}, false
}

// Default returns the buffer backend that reproduces the historical
// hard-wired behavior for a buffer technology: "edram" for EDRAM
// configs, "sram" for SRAM.
func Default(tech energy.BufferTech) Backend {
	b, _ := Lookup(DefaultName(tech))
	return b
}

// DefaultName is Default's registry key.
func DefaultName(tech energy.BufferTech) string {
	if tech == energy.SRAM {
		return "sram"
	}
	return "edram"
}

// NormalizeName collapses the default backend's explicit spelling onto
// the empty string for a given buffer technology, so cache keys, memo
// keys and wire encodings do not fork on equivalent requests.
func NormalizeName(name string, tech energy.BufferTech) string {
	if name == DefaultName(tech) {
		return ""
	}
	return name
}

// NormalizePoint collapses the nominal point's explicit spelling onto
// the empty string.
func NormalizePoint(name string) string {
	if name == Nominal {
		return ""
	}
	return name
}

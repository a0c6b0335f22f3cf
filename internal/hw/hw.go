// Package hw describes accelerator hardware configurations: the PE array,
// core local storage, the unified on-chip buffer, and the clock. Two
// built-in configurations reproduce the paper's platforms — the 256-PE
// test accelerator of §III-A and the DaDianNao node of §V-C.
package hw

import (
	"fmt"
	"math"

	"rana/internal/energy"
)

// Mapping selects how the PE array spatially unrolls the convolution
// loops — which tiling parameters are parallel (spatial) and which are
// temporal. It determines the per-tile cycle count and therefore η.
type Mapping int

const (
	// MapOutputPixel is the Envision-style mapping of the test
	// accelerator (§III-A): ArrayM rows share inputs to compute ArrayM
	// output channels in parallel while ArrayN columns compute output
	// pixels of the Tr×Tc tile in parallel; Tn and K² are temporal.
	// This reproduces the paper's observation that halving Tn halves
	// the OD lifetime (1290 µs → 645 µs on Layer-B, §IV-C1).
	MapOutputPixel Mapping = iota
	// MapOutputInput is the DaDianNao-style mapping (§V-C): ArrayM
	// output × ArrayN input channels in parallel via adder trees;
	// Tr, Tc and K² are temporal.
	MapOutputInput
)

// String implements fmt.Stringer.
func (m Mapping) String() string {
	switch m {
	case MapOutputPixel:
		return "output×pixel"
	case MapOutputInput:
		return "output×input"
	default:
		return fmt.Sprintf("Mapping(%d)", int(m))
	}
}

// Config is one accelerator hardware configuration. All storage sizes are
// in 16-bit words.
type Config struct {
	// Name identifies the configuration in reports.
	Name string

	// ArrayM × ArrayN is the PE array: ArrayM output-channel lanes and
	// ArrayN secondary lanes (output pixels under MapOutputPixel, input
	// channels under MapOutputInput). The total MAC count is
	// ArrayM·ArrayN.
	ArrayM, ArrayN int

	// Mapping is the array's spatial loop unrolling.
	Mapping Mapping

	// FrequencyHz is the working clock frequency.
	FrequencyHz float64

	// LocalInput, LocalOutput, LocalWeight are the core's local storage
	// capacities Ri, Ro, Rw in words — the tiling constraints of Fig. 13:
	// Tn·Th·Tl ≤ Ri, Tm·Tr·Tc ≤ Ro, Tm·Tn·K² ≤ Rw.
	LocalInput, LocalOutput, LocalWeight int

	// BufferWords is the unified on-chip buffer capacity in words.
	BufferWords uint64

	// BufferTech selects SRAM or eDRAM buffers.
	BufferTech energy.BufferTech

	// BankWords is the refresh granularity: one eDRAM bank (32 KB ⇒
	// 16384 words in the paper's technology).
	BankWords int
}

// PEs returns the total multiply-accumulator count.
func (c Config) PEs() int { return c.ArrayM * c.ArrayN }

// Banks returns the number of buffer banks, rounding up so the last
// partial bank still exists (and must be refreshed by a conventional
// controller).
func (c Config) Banks() int { return BankCount(c.BufferWords, c.BankWords) }

// BankCount is Banks for a buffer capacity and bank size given apart —
// the form per-candidate pricing uses, since the value receiver copies
// the whole configuration at every call.
func BankCount(bufferWords uint64, bankWords int) int {
	return int((bufferWords + uint64(bankWords) - 1) / uint64(bankWords))
}

// WithBufferWords returns a copy of the configuration with a different
// buffer capacity — used by the Fig. 18 capacity sweep.
func (c Config) WithBufferWords(words uint64) Config {
	c.BufferWords = words
	return c
}

// WithBufferTech returns a copy with a different buffer technology.
func (c Config) WithBufferTech(t energy.BufferTech) Config {
	c.BufferTech = t
	return c
}

// Validate reports structural problems with the configuration.
func (c Config) Validate() error {
	switch {
	case c.ArrayM <= 0 || c.ArrayN <= 0:
		return fmt.Errorf("hw: %s: non-positive PE array %dx%d", c.Name, c.ArrayM, c.ArrayN)
	case !(c.FrequencyHz > 0) || math.IsInf(c.FrequencyHz, 1):
		return fmt.Errorf("hw: %s: frequency %g not positive and finite", c.Name, c.FrequencyHz)
	case c.LocalInput <= 0 || c.LocalOutput <= 0 || c.LocalWeight <= 0:
		return fmt.Errorf("hw: %s: non-positive local storage", c.Name)
	case c.BufferWords == 0:
		return fmt.Errorf("hw: %s: zero buffer capacity", c.Name)
	case c.BankWords <= 0:
		return fmt.Errorf("hw: %s: non-positive bank size", c.Name)
	case c.Mapping != MapOutputPixel && c.Mapping != MapOutputInput:
		return fmt.Errorf("hw: %s: unknown array mapping %d", c.Name, int(c.Mapping))
	}
	return nil
}

// Paper buffer capacities. The paper reports sizes in its MB unit
// (KB = 1024 B, MB = 1000 KB; see internal/models).
const (
	// TestSRAMWords is the SRAM-based test accelerator's 384 KB buffer.
	TestSRAMWords = 384 * 1024 / 2
	// TestEDRAMWords is the equal-area eDRAM capacity: 1.454 MB.
	TestEDRAMWords = 1454 * 1024 / 2
	// DaDianNaoWords is DaDianNao's 36 MB on-chip eDRAM.
	DaDianNaoWords = 36 * 1000 * 1024 / 2
)

// TestAccelerator returns the paper's test CNN accelerator (§III-A):
// 256 PEs in a 16×16 array at 200 MHz, 36 KB core local storage, and a
// 384 KB SRAM unified buffer (the S+ID baseline). Use WithBufferTech /
// WithBufferWords for the eDRAM variants.
//
// The 36 KB local storage split (16 KB inputs, 4 KB outputs, 16 KB
// weights) is our allocation — the paper gives only the 36 KB total — and
// is sized so the running cases' tilings (Tm=Tn=16, Tr=1, Tc=16) fit for
// every kernel size the benchmarks use (up to 5×5 at full 16×16 tiles),
// with room for the scheduler to explore.
func TestAccelerator() Config {
	return Config{
		Name:        "test-accelerator",
		ArrayM:      16,
		ArrayN:      16,
		FrequencyHz: 200e6,
		LocalInput:  8192, // 16 KB
		LocalOutput: 2048, // 4 KB
		LocalWeight: 8192, // 16 KB
		BufferWords: TestSRAMWords,
		BufferTech:  energy.SRAM,
		BankWords:   energy.BankWords,
	}
}

// TestAcceleratorEDRAM returns the eDRAM-buffered variant at equal area:
// 1.454 MB of eDRAM instead of 384 KB of SRAM.
func TestAcceleratorEDRAM() Config {
	c := TestAccelerator()
	c.BufferWords = TestEDRAMWords
	c.BufferTech = energy.EDRAM
	return c
}

// DaDianNao returns one DaDianNao node as modeled in §V-C: 4096 PEs in a
// 64×64 organization with fixed tiling Tm=Tn=64, Tr=Tc=1, 36 MB of
// on-chip eDRAM, at 606 MHz. Local storage is sized to hold one
// 64×64 weight tile at the largest kernel the benchmarks use (11×11 in
// AlexNet's conv1).
func DaDianNao() Config {
	return Config{
		Name:        "dadiannao",
		ArrayM:      64,
		ArrayN:      64,
		Mapping:     MapOutputInput,
		FrequencyHz: 606e6,
		LocalInput:  16384,
		LocalOutput: 16384,
		LocalWeight: 64 * 64 * 121,
		BufferWords: DaDianNaoWords,
		BufferTech:  energy.EDRAM,
		BankWords:   energy.BankWords,
	}
}

// EyerissLike returns a third validation platform beyond the paper's two:
// a small Eyeriss-class spatial accelerator (168 PEs in a 12×14 array at
// 200 MHz) refitted with eDRAM buffers. The paper argues RANA "can be
// applied to current CNN hardware architectures" (§IV-A, §VI); the ext4
// experiment checks that the design-point ordering survives on this very
// different geometry.
func EyerissLike() Config {
	return Config{
		Name:        "eyeriss-like",
		ArrayM:      12,
		ArrayN:      14,
		Mapping:     MapOutputPixel,
		FrequencyHz: 200e6,
		LocalInput:  6144, // 12 KB
		LocalOutput: 1536, // 3 KB
		LocalWeight: 6144, // 12 KB
		// 424 KB of eDRAM: the area of Eyeriss's 108 KB SRAM buffer.
		BufferWords: 424 * 1024 / 2,
		BufferTech:  energy.EDRAM,
		BankWords:   energy.BankWords,
	}
}

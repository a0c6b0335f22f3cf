// Package fault is the deterministic fault-injection engine behind the
// error-budget admission pipeline: it turns a memory backend's failure
// model — a per-point raw bit-error rate (internal/mem), scaled by how
// long each data region actually sits in the decaying cells
// (internal/sim's per-region lifetimes) relative to the refresh interval
// — into seeded bit-flip masks over 16-bit fixed-point words.
//
// The masks are pure data: a sorted list of (word, bit) flips with a
// canonical byte serialization and hash, so the verification oracle can
// check reproducibility literally (same seed + same (backend, point,
// plan) ⇒ byte-identical masks). They drive two consumers:
//
//   - the functional simulator, via Wrap's overlay on a backend's
//     mem.Buffer that XORs mask bits into reads at known addresses
//     (sim.RunFunctional, verify.CompareFunctional);
//   - the training substrate, via rate-matched bits.Injector fault
//     models in the real nn forward pass (nn.FaultModel / nn.FaultPlan).
//
// Everything is seeded SplitMix64; nothing here touches global state.
package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"rana/internal/bits"
	"rana/internal/fixed"
	"rana/internal/retention"
)

// MaxWords bounds a mask's word extent. Masks are drawn bit by bit, so
// the extent bounds work and memory against hostile sizes; callers
// sampling a large region window a prefix instead (the flip statistics
// are position-independent).
const MaxWords = 1 << 22

// Flip is one bit flip: bit Bit of word Word is inverted.
type Flip struct {
	Word int
	Bit  uint8
}

// Mask is a deterministic set of bit flips over a region of words.
// Construct with New; the zero value is an empty mask over zero words.
type Mask struct {
	// Words is the region extent the mask was drawn over.
	Words int
	// Rate is the per-bit flip probability the mask was drawn at.
	Rate float64
	// Seed is the SplitMix64 seed the draw consumed.
	Seed uint64
	// Flips are the drawn flips, sorted by (Word, Bit). Every Word is in
	// [0, Words) and every Bit in [0, fixed.WordBits).
	Flips []Flip
}

// New draws a mask over words 16-bit words: every bit flips
// independently with probability rate. The draw is a fixed-order scan
// (word-major, bit-minor) over one SplitMix64 stream, so the same
// (words, rate, seed) triple always yields the same flips — the
// byte-identity contract the differential oracle checks.
//
// rate is the *flip* probability. A raw bit-error rate r in the
// injector's convention (a failed bit takes a fair-coin value, changing
// with probability r/2) converts via FlipRate.
func New(words int, rate float64, seed uint64) (*Mask, error) {
	if words < 0 || words > MaxWords {
		return nil, fmt.Errorf("fault: mask extent %d outside [0, %d]", words, MaxWords)
	}
	if rate < 0 || rate > 1 || math.IsNaN(rate) {
		return nil, fmt.Errorf("fault: flip rate %g outside [0, 1]", rate)
	}
	m := &Mask{Words: words, Rate: rate, Seed: seed}
	if rate == 0 || words == 0 {
		return m, nil
	}
	rng := bits.NewSplitMix64(seed)
	for w := 0; w < words; w++ {
		for b := 0; b < fixed.WordBits; b++ {
			if rng.Float64() < rate {
				m.Flips = append(m.Flips, Flip{Word: w, Bit: uint8(b)})
			}
		}
	}
	return m, nil
}

// FlipRate converts a raw bit-error rate in the injector's convention
// (failed bits take fair-coin values) into the observable per-bit flip
// probability: rate/2.
func FlipRate(ber float64) float64 { return ber / 2 }

// XorWords renders the mask as per-word XOR patterns, keyed by word
// index. Words without flips are absent.
func (m *Mask) XorWords() map[int]uint16 {
	xs := make(map[int]uint16, len(m.Flips))
	for _, f := range m.Flips {
		xs[f.Word] |= 1 << uint(f.Bit)
	}
	return xs
}

// Apply XORs the mask into ws in place and returns the number of words
// changed. Flips beyond len(ws) are ignored, so a mask drawn over a
// region prefix applies cleanly to the full region.
func (m *Mask) Apply(ws []fixed.Word) int {
	changed := 0
	last := -1
	for _, f := range m.Flips {
		if f.Word < 0 || f.Word >= len(ws) || f.Bit >= fixed.WordBits {
			continue
		}
		ws[f.Word] = fixed.FromBits(fixed.Bits(ws[f.Word]) ^ 1<<uint(f.Bit))
		if f.Word != last {
			changed++
			last = f.Word
		}
	}
	return changed
}

// Bytes is the canonical serialization: a fixed header (extent, rate
// bits, seed, flip count) followed by each flip as (word, bit), all
// little-endian. Two masks are byte-identical iff they are equal.
func (m *Mask) Bytes() []byte {
	buf := make([]byte, 0, 32+9*len(m.Flips))
	var h [32]byte
	binary.LittleEndian.PutUint64(h[0:], uint64(m.Words))
	binary.LittleEndian.PutUint64(h[8:], math.Float64bits(m.Rate))
	binary.LittleEndian.PutUint64(h[16:], m.Seed)
	binary.LittleEndian.PutUint64(h[24:], uint64(len(m.Flips)))
	buf = append(buf, h[:]...)
	for _, f := range m.Flips {
		var e [9]byte
		binary.LittleEndian.PutUint64(e[0:], uint64(f.Word))
		e[8] = f.Bit
		buf = append(buf, e[:]...)
	}
	return buf
}

// Hash is the SHA-256 of Bytes, hex-encoded — the reproducibility
// fingerprint the oracle and CI compare.
func (m *Mask) Hash() string {
	sum := sha256.Sum256(m.Bytes())
	return hex.EncodeToString(sum[:])
}

// ExposureRate scales a point's raw bit-error rate by a data region's
// actual cell exposure (DESIGN.md §14): the quoted rate is per refresh
// interval of residency on the scaled retention curve, and a region
// whose lifetime spans several intervals accumulates independent
// exposure per interval:
//
//	effective = 1 - (1 - ber)^(lifetime/interval)
//
// A region that never rests in the cells (lifetime ≤ 0) sees no faults;
// with no refresh at all (interval ≤ 0) the quoted rate applies once.
// The result is clamped to [0, 1].
func ExposureRate(ber float64, lifetime, interval time.Duration) float64 {
	if ber <= 0 || lifetime <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	if interval <= 0 {
		return ber
	}
	periods := float64(lifetime) / float64(interval)
	eff := 1 - math.Pow(1-ber, periods)
	if eff < 0 {
		return 0
	}
	if eff > 1 {
		return 1
	}
	return eff
}

// MixSeed derives a stream seed from a base seed and a label (e.g.
// "approx-dram@v0.8/conv1"): FNV-1a over the label folded into the base
// through one SplitMix64 step. Distinct labels get well-separated
// streams; the same (base, label) always maps to the same seed.
func MixSeed(base uint64, label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return bits.NewSplitMix64(base ^ h).Uint64()
}

// SampleFailureRate estimates the weakest-cell failure probability at a
// lifetime empirically: the fraction of n cells, sampled from the
// retention distribution, whose retention time falls below the
// lifetime. It is the Monte-Carlo view of dist.FailureRate(lifetime) —
// the cross-check tying the analytic CDF the admission path uses to the
// per-cell sampling internal/edram's functional buffer performs.
func SampleFailureRate(dist *retention.Distribution, lifetime time.Duration, n int, seed uint64) float64 {
	if n <= 0 {
		return 0
	}
	rng := bits.NewSplitMix64(seed)
	failed := 0
	for i := 0; i < n; i++ {
		if dist.SampleCellRetention(rng) < lifetime {
			failed++
		}
	}
	return float64(failed) / float64(n)
}

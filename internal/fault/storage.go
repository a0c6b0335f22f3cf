package fault

import (
	"time"

	"rana/internal/fixed"
	"rana/internal/mem"
)

// FaultyStorage overlays a mask on a mem.Buffer and is a mem.Buffer
// itself: reads of masked addresses come back with the mask's bits
// inverted, modeling cells stuck in the flipped state for the run (every
// read of a failed word sees the same corruption, as a decayed eDRAM
// cell would present until rewritten). Writes and Words pass through
// untouched, so writing a masked address re-arms the flip for the next
// read.
type FaultyStorage struct {
	inner mem.Buffer
	// xors holds the per-word XOR patterns, offset by base.
	xors map[int]uint16
	base int
	// injections counts reads that came back corrupted.
	injections int
}

// Wrap overlays mask onto s, with the mask's word 0 landing at address
// base. Flips outside [0, s.Words()) never fire.
func Wrap(s mem.Buffer, mask *Mask, base int) *FaultyStorage {
	fs := &FaultyStorage{inner: s, xors: mask.XorWords(), base: base}
	return fs
}

// Read returns the stored word with any mask bits for addr inverted.
func (fs *FaultyStorage) Read(addr int, now time.Duration) fixed.Word {
	w := fs.inner.Read(addr, now)
	if x, ok := fs.xors[addr-fs.base]; ok && x != 0 {
		w = fixed.FromBits(fixed.Bits(w) ^ x)
		fs.injections++
	}
	return w
}

// Write passes through to the wrapped storage.
func (fs *FaultyStorage) Write(addr int, w fixed.Word, now time.Duration) {
	fs.inner.Write(addr, w, now)
}

// Words passes through to the wrapped storage.
func (fs *FaultyStorage) Words() int { return fs.inner.Words() }

// Injections reports how many reads were served corrupted.
func (fs *FaultyStorage) Injections() int { return fs.injections }

package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rana/internal/bits"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/walk_golden.txt from the current walker")

// goldenTraversals are the traversal orders the walker golden pins: the
// linear nest and blocked stage counts that split evenly, unevenly, and
// clamp to the loop extent.
var goldenTraversals = []pattern.Traversal{{}, {Blocks: 2}, {Blocks: 3}, {Blocks: 8}, {Blocks: 64}}

// goldenTilings returns the natural tiling of one zoo layer and one
// larger tiling sampled from a seeded stream: each dimension drawn
// between the natural tile and a few multiples of it, within the
// per-group extent.
func goldenTilings(l models.ConvLayer, cfg hw.Config, rng *bits.SplitMix64) []pattern.Tiling {
	nat := sched.NaturalTiling(l, cfg)
	n, m := l.N, l.M
	if l.Groups > 1 {
		n, m = n/l.Groups, m/l.Groups
	}
	draw := func(lo, hi int) int {
		if hi <= lo {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	big := pattern.Tiling{
		Tm: draw(nat.Tm, min(m, 4*nat.Tm)),
		Tn: draw(nat.Tn, min(n, 4*nat.Tn)),
		Tr: draw(1, min(l.R(), 4)),
		Tc: draw(nat.Tc, l.C()),
	}
	return []pattern.Tiling{nat, big}
}

// goldenHasher folds walker results into a SHA-256 digest field by field.
type goldenHasher struct {
	h   hash.Hash
	buf []byte
}

func (g *goldenHasher) u64(vs ...uint64) {
	g.buf = g.buf[:0]
	for _, v := range vs {
		g.buf = binary.LittleEndian.AppendUint64(g.buf, v)
	}
	g.h.Write(g.buf)
}

func (g *goldenHasher) walk(tr Trace) {
	g.u64(tr.Cycles, uint64(tr.ExecTime),
		tr.BufferTraffic.Inputs, tr.BufferTraffic.Outputs, tr.BufferTraffic.Weights,
		uint64(tr.Lifetimes.Input), uint64(tr.Lifetimes.Output), uint64(tr.Lifetimes.Weight))
}

// events digests an event stream, buffered so the hash sees large
// writes.
func (g *goldenHasher) events(mem *trace.Trace) {
	g.u64(uint64(len(mem.Events)), math.Float64bits(mem.FrequencyHz))
	le := binary.LittleEndian
	b := g.buf[:0]
	for _, e := range mem.Events {
		b = le.AppendUint64(le.AppendUint64(le.AppendUint64(le.AppendUint64(le.AppendUint64(b,
			e.Cycle), uint64(e.Op)), uint64(e.Type)), e.Addr), e.Words)
		if len(b) >= 64<<10 {
			g.h.Write(b)
			b = b[:0]
		}
	}
	g.buf = b
	g.h.Write(b)
}

func (g *goldenHasher) sum() string {
	s := hex.EncodeToString(g.h.Sum(nil))
	g.h.Reset()
	return s
}

// walkGolden renders the walker golden: per zoo layer on the eDRAM test
// accelerator, one digest of WalkTraversal's Trace at both golden
// tilings × ID, OD, WD × every golden traversal, and one digest of
// WalkWithTrace's event streams at the natural tiling for ID, OD and WD.
func walkGolden() []string {
	cfg := hw.TestAcceleratorEDRAM()
	rng := bits.NewSplitMix64(2018)
	g := &goldenHasher{h: sha256.New()}
	var lines []string
	for _, net := range models.Benchmarks() {
		for _, l := range net.Layers {
			tilings := goldenTilings(l, cfg, rng)
			for _, ti := range tilings {
				for _, k := range pattern.Kinds {
					for _, trv := range goldenTraversals {
						g.walk(WalkTraversal(l, k, ti, cfg, trv))
					}
				}
			}
			lines = append(lines, fmt.Sprintf("walk %s %s %v %s", net.Name, l.Name, tilings[1], g.sum()))
			for _, k := range pattern.Kinds {
				tr, mem := WalkWithTrace(l, k, tilings[0], cfg)
				g.walk(tr)
				g.events(mem)
			}
			lines = append(lines, fmt.Sprintf("trace %s %s %s", net.Name, l.Name, g.sum()))
		}
	}
	return lines
}

// TestWalkGolden pins the cycle walker's output bit for bit: every
// Trace WalkTraversal returns across the zoo, both golden tilings, the
// three patterns and the golden traversals, and the order, cycles,
// addresses and sizes of every event WalkWithTrace records. The closed-
// form cross-checks compare sums and maxima; this golden catches a
// reordered or re-addressed event and a walk that moves any field.
// Regenerate only for an intended walker change, with -update.
func TestWalkGolden(t *testing.T) {
	got := walkGolden()
	path := filepath.Join("testdata", "walk_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("walker moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

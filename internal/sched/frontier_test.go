package sched

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
	"unsafe"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// TestRecordIsCompact pins the frontier record's size, which
// DefaultMemoCapacity's byte budget is computed from.
func TestRecordIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 104 {
		t.Fatalf("record takes %d bytes, want 104 — re-derive DefaultMemoCapacity", got)
	}
}

// pick is the envelope's oracle: the canonical argmin of the records
// re-priced at the options' interval through frontier.price, the path
// a query prices its winner on, and its exact energy. pts and maps are
// the layer's resolved operating-point and mapping axes.
func (f *frontier) pick(opts *Options, pts []mem.OperatingPoint, maps []MappingPolicy,
	refreshing bool, banks, bankWords int) (int, float64) {
	return f.argmin(func(i int) float64 {
		r := &f.recs[i]
		return f.price(r, opts, &pts[r.point], maps[r.mp], refreshing, banks, bankWords)
	})
}

// dyadicFrame prices with unit access and refresh energies, no MACs and
// no DDR traffic, so crafted records tie exactly: E = buf + refresh
// words. One-word banks, the guard band off.
func dyadicFrame(interval time.Duration) (*Options, []mem.OperatingPoint, []MappingPolicy) {
	opts := &Options{Controller: memctrl.RefreshOptimized{}, RefreshInterval: interval, RetentionGuard: 1}
	pts := []mem.OperatingPoint{{Name: mem.Nominal, AccessPJ: 1, RefreshPJ: 1, RetentionScale: 1}}
	return opts, pts, []MappingPolicy{RowMajorMapping}
}

// TestFrontierPickPricesEqualE0Ties: a record whose E0 equals the best
// exact energy so far can still tie it and win the canonical tie-break,
// so the query must price it rather than stop. w sorts first (E0 10)
// and pays 2 refresh words at the interval (E 12); x, canonically
// earlier, has E0 12 and needs no refresh (E 12). x must win. A query
// stopping at E0 ≥ best returns w.
func TestFrontierPickPricesEqualE0Ties(t *testing.T) {
	const iv = time.Microsecond
	opts, pts, maps := dyadicFrame(iv)
	w := record{e0: 10, buf: 10, exec: 2 * iv, lt: pattern.Lifetimes{Input: iv}, banks: [3]int32{1, 0, 0}, kind: 1}
	x := record{e0: 12, buf: 12, exec: 2 * iv, kind: 0}
	f := frontier{recs: []record{w, x}}
	win, best := f.pick(opts, pts, maps, true, 8, 1)
	if best != 12 {
		t.Fatalf("best energy %v, want 12 (the crafted tie)", best)
	}
	if win != 1 {
		t.Fatalf("pick chose record %d, want the canonically earlier tie x (1)", win)
	}
}

// TestFrontierDominanceKeepsCanonicalOrder: k is ≤ x on every refresh
// input and cheaper refresh-free, but canonically later. A refresh term
// of 2^54 words absorbs the one-access difference, so k and x tie at the
// interval and x, canonically earlier, must win. Dominance therefore may
// not drop x: the frontier keeps both, and the query picks x. Dominance
// that ignores canonical order keeps only k.
func TestFrontierDominanceKeepsCanonicalOrder(t *testing.T) {
	const iv = time.Nanosecond
	opts, pts, maps := dyadicFrame(iv)
	k := record{e0: 1, buf: 1, exec: (1 << 27) * iv, lt: pattern.Lifetimes{Input: iv}, banks: [3]int32{1, 0, 0}, kind: 1}
	x := k
	x.e0, x.buf, x.kind = 2, 2, 0
	var b frontierBuild
	rb := b.recorder().(*recordBuf)
	rb.recs = append(rb.recs, x, k)
	f := b.finish(math.Inf(1), iv)
	if len(f.recs) != 2 {
		t.Fatalf("frontier kept %d records, want both: k precedes x by E0 but not canonically", len(f.recs))
	}
	win, best := f.pick(opts, pts, maps, true, 1, 1<<27)
	if best != 1<<54 {
		t.Fatalf("best energy %v, want the absorbed tie 2^54", best)
	}
	if f.recs[win].kind != 0 {
		t.Fatalf("pick chose kind %d, want x (kind 0), the canonically earlier tie", f.recs[win].kind)
	}
}

// TestDominanceImpliesCheaper: on real candidates — AlexNet's layers,
// every kind, the RTC ladder, every mapping, every approx-dram point,
// both controllers — whenever one record dominates another, its energy
// is at most the other's at random intervals, and a record's re-priced
// energy equals the exact evaluator's bit for bit.
func TestDominanceImpliesCheaper(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	rng := rand.New(rand.NewPCG(7, 11))
	travs, err := ParseTraversalSpec("rtc")
	if err != nil {
		t.Fatal(err)
	}
	maps, err := ParseMappingSpec("all")
	if err != nil {
		t.Fatal(err)
	}
	banks := hw.BankCount(cfg.BufferWords, cfg.BankWords)
	pairs := 0
	for _, ctrl := range []memctrl.Controller{memctrl.Conventional{}, memctrl.RefreshOptimized{}} {
		opts := Options{
			Patterns:        []pattern.Kind{pattern.ID, pattern.OD, pattern.WD},
			Controller:      ctrl,
			RefreshInterval: 45 * time.Microsecond,
			Backend:         "approx-dram",
			ErrorBudget:     1,
		}
		for _, l := range models.AlexNet().Layers {
			bk, pts, err := ResolveBackendForLayer(cfg, opts, l.Name)
			if err != nil {
				t.Fatal(err)
			}
			tilings := candidateTilings(l, cfg, opts)
			point, mp := rng.IntN(len(pts)), rng.IntN(len(maps))
			f := frontier{}
			var lp LayerPlan
			for len(f.recs) < 300 {
				c := search.Candidate{KindIdx: rng.IntN(len(opts.Patterns)), TilingIdx: rng.IntN(len(tilings)),
					PointIdx: point, TravIdx: rng.IntN(len(travs)), MapIdx: mp}
				c.Kind, c.Tiling = opts.Patterns[c.KindIdx], tilings[c.TilingIdx]
				if err := evaluateCellInto(&lp, &l, c.Kind, c.Tiling, &cfg, &opts, bk, &pts[point], travs[c.TravIdx], maps[mp]); err != nil {
					t.Fatal(err)
				}
				f.macs = lp.Analysis.MACs
				f.recs = append(f.recs, record{})
				setRecord(&f.recs[len(f.recs)-1], c, &lp, refreshFree(lp.Energy))
			}
			at := func(r *record, iv time.Duration) float64 {
				o := opts
				o.RefreshInterval = iv
				return f.price(r, &o, &pts[r.point], maps[r.mp], true, banks, cfg.BankWords)
			}
			for i := range f.recs {
				a := &f.recs[i]
				iv := time.Duration(1e3 + rng.Float64()*2e6)
				o := opts
				o.RefreshInterval = iv
				if err := evaluateCellInto(&lp, &l, opts.Patterns[a.kind], a.tilingOf(), &cfg, &o, bk, &pts[point], travs[a.trav], maps[mp]); err != nil {
					t.Fatal(err)
				}
				if got, want := at(a, iv), lp.Energy.Total(); got != want {
					t.Fatalf("%s: re-priced %v pJ, exact %v pJ at %v", l.Name, got, want, iv)
				}
				for j := range f.recs {
					b := &f.recs[j]
					if i == j || !a.dominates(b) {
						continue
					}
					pairs++
					for _, iv := range []time.Duration{time.Duration(1e3 + rng.Float64()*1e5), time.Duration(1e5 + rng.Float64()*5e6)} {
						if ea, eb := at(a, iv), at(b, iv); ea > eb {
							t.Fatalf("%s at %v: dominating record costs %v pJ, dominated %v pJ", l.Name, iv, ea, eb)
						}
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no record dominated another: the draw is too thin to test anything")
	}
	t.Logf("%d dominance pairs checked", pairs)
}

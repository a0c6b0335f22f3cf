package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// envelopeCase is one layer's published envelope together with what
// checks it without the envelope code: the build's records before the
// sweep, which pick re-prices at any interval, and the frame a memo-free
// exhaustive exploration runs under.
type envelopeCase struct {
	l          models.ConvLayer
	cfg        hw.Config
	opts       Options
	env        compileEnv
	full       frontier
	pts        []mem.OperatingPoint
	refreshing bool
}

// buildEnvelope returns l's envelope as the memo publishes it, built at
// the options' interval, and its case: a second recording exploration
// whose records are kept before any sweep.
func buildEnvelope(l models.ConvLayer, cfg hw.Config, opts Options) (frontier, *envelopeCase, error) {
	env, err := envFor(opts)
	if err != nil {
		return frontier{}, nil, err
	}
	_, _, f, err := buildFrontier(l, cfg, opts, env)
	if err != nil {
		return frontier{}, nil, err
	}
	s := exploreStatePool.Get().(*exploreState)
	defer s.release()
	s.recording = true
	lp, _, err := s.explore(l, cfg, opts, env)
	if err != nil {
		return frontier{}, nil, err
	}
	full := s.build.finish(lp.Energy.Total(), f.lo)
	full.recs = slices.Clone(full.recs)
	c := &envelopeCase{l: l, cfg: cfg, opts: opts, env: env, full: full, pts: slices.Clone(s.points),
		refreshing: opts.Controller != nil && s.bk.Refreshes()}
	return f, c, nil
}

// probes are the intervals the check visits in f: each piece's first
// nanosecond, midpoint and last nanosecond. The last piece never ends;
// it is probed up to a second, past every layer's execution time. A
// frontier valid at every interval is probed from the options' own.
func (c *envelopeCase) probes(f *frontier) []time.Duration {
	var ts []time.Duration
	for k := range f.win {
		start, end := f.lo, time.Second
		if k == 0 && f.lo == alwaysValid {
			start = c.opts.RefreshInterval
		}
		if k > 0 {
			start = f.bps[k-1]
		}
		if k < len(f.bps) {
			end = f.bps[k] - 1
		}
		end = max(start, end)
		ts = append(ts, start, start+(end-start)/2, end)
	}
	return ts
}

// check holds f to the oracles at every probe (checkAt).
func (c *envelopeCase) check(f *frontier, exhaustive bool) error {
	for _, t := range c.probes(f) {
		if err := c.checkAt(f, t, exhaustive); err != nil {
			return err
		}
	}
	return nil
}

// checkAt holds f to the oracles at interval t: its winner must be
// pick's canonical argmin of the untrimmed records, and the plan it
// serves must equal a memo-free exhaustive exploration's (skipped when
// exhaustive is false).
func (c *envelopeCase) checkAt(f *frontier, t time.Duration, exhaustive bool) error {
	o := c.opts
	o.RefreshInterval = t
	want, _ := c.full.pick(&o, c.pts, c.env.maps, c.refreshing, hw.BankCount(c.cfg.BufferWords, c.cfg.BankWords), c.cfg.BankWords)
	if want < 0 {
		return fmt.Errorf("%s at %v: no record to pick", c.l.Name, t)
	}
	if got, w := f.winner(t), &c.full.recs[want]; *got != *w {
		return fmt.Errorf("%s at %v: envelope winner (kind %d, tiling %d, point %d, traversal %d, mapping %d), pick's (%d, %d, %d, %d, %d)",
			c.l.Name, t, got.kind, got.ti, got.point, got.trav, got.mp, w.kind, w.ti, w.point, w.trav, w.mp)
	}
	if !exhaustive {
		return nil
	}
	lp, err := answer(f, c.l, c.cfg, o, c.env)
	if err != nil {
		return fmt.Errorf("%s at %v: query: %w", c.l.Name, t, err)
	}
	o.Search, o.Parallelism, o.Memo = search.Exhaustive, 1, nil
	ref, _, err := ExploreLayer(c.l, c.cfg, o)
	if err != nil {
		return fmt.Errorf("%s at %v: exhaustive: %w", c.l.Name, t, err)
	}
	if !reflect.DeepEqual(lp, ref) {
		return fmt.Errorf("%s at %v: envelope plan %+v, exhaustive %+v", c.l.Name, t, lp.Analysis.Tiling, ref.Analysis.Tiling)
	}
	return nil
}

// envelopeOptions are the frames the envelope checks run under: ranad's
// default space and the RTC × all-mappings one, at the conventional
// interval under the refresh-optimized controller.
func envelopeOptions() map[string]Options {
	base := Options{Patterns: []pattern.Kind{pattern.OD, pattern.WD}, RefreshInterval: 45 * time.Microsecond,
		Controller: memctrl.RefreshOptimized{}}
	axes := base
	axes.Traversal, axes.Mapping = "rtc", "all"
	return map[string]Options{"default": base, "axes": axes}
}

// distinctShapes returns the zoo's layers, one per memo key under opts.
func distinctShapes(cfg hw.Config, opts Options) []models.ConvLayer {
	frame := frameDigest(cfg, opts)
	var keys []memoKey
	var out []models.ConvLayer
	for _, net := range models.Benchmarks() {
		for i := range net.Layers {
			k := layerKey(&frame, &net.Layers[i], &opts)
			if !slices.Contains(keys, k) {
				keys, out = append(keys, k), append(out, net.Layers[i])
			}
		}
	}
	return out
}

// TestEnvelopeMatchesPickAndExhaustiveOnZoo: for every distinct zoo
// shape on both spaces, at the first nanosecond, midpoint and last
// nanosecond of every piece, the envelope's winner is pick's on the
// untrimmed records and its plan is a memo-free exhaustive compile's.
// Short mode and the race detector, which adds nothing to this
// sequential check, compare the plans on every seventh shape.
func TestEnvelopeMatchesPickAndExhaustiveOnZoo(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for name, opts := range envelopeOptions() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pieces := 0
			for i, l := range distinctShapes(cfg, opts) {
				f, c, err := buildEnvelope(l, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				pieces += len(f.win)
				if err := c.check(&f, !(testing.Short() || raceEnabled) || i%7 == 0); err != nil {
					t.Error(err)
				}
			}
			t.Logf("%d pieces", pieces)
		})
	}
}

// TestEnvelopeAtTheLongestIntervals: ranad accepts any non-negative
// interval, so envelopes built near the largest one, where the sweep's
// ceiling meets the int64 range, answer it and the intervals above.
func TestEnvelopeAtTheLongestIntervals(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, lo := range []time.Duration{math.MaxInt64 / 2, math.MaxInt64 - 1, math.MaxInt64} {
		opts := envelopeOptions()["default"]
		opts.RefreshInterval = lo
		l, _ := models.AlexNet().Layer("conv1")
		f, c, err := buildEnvelope(l, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []time.Duration{lo, lo + (math.MaxInt64-lo)/2, math.MaxInt64} {
			if err := c.checkAt(&f, at, true); err != nil {
				t.Errorf("built at %v: %v", lo, err)
			}
		}
	}
}

// TestEnvelopeBreakpointMutantsFail moves each breakpoint of the zoo's
// envelopes one nanosecond either way, wherever that keeps the pieces
// ordered, and requires the check to reject every such mutant. Under
// the race detector only the comparison with pick runs.
func TestEnvelopeBreakpointMutantsFail(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := envelopeOptions()["default"]
	mutants := 0
	for _, l := range distinctShapes(cfg, opts)[:20] {
		f, c, err := buildEnvelope(l, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(&f, false); err != nil {
			t.Fatalf("unmutated: %v", err)
		}
		for k, b := range f.bps {
			for _, d := range []time.Duration{-1, 1} {
				prev, next := f.lo, time.Duration(1<<62)
				if k > 0 {
					prev = f.bps[k-1]
				}
				if k+1 < len(f.bps) {
					next = f.bps[k+1]
				}
				if b+d <= prev || b+d >= next {
					continue
				}
				m := f
				m.bps = slices.Clone(f.bps)
				m.bps[k] += d
				mutants++
				if c.check(&m, !raceEnabled) == nil {
					t.Errorf("%s: breakpoint %d moved %v from %v passed the check", l.Name, k, d, b)
				}
			}
		}
	}
	if mutants == 0 {
		t.Fatal("no breakpoint to mutate")
	}
	t.Logf("%d mutants rejected", mutants)
}

// TestEnvelopeRepricerMatchesPrice: the sweep's re-pricer, summing
// per-record addends, equals frontier.price bit for bit on real
// records — the zoo's AlexNet layers on the RTC × all-mappings space,
// every approx-dram point, both controllers — at random intervals.
func TestEnvelopeRepricerMatchesPrice(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	rng := rand.New(rand.NewPCG(21, 12))
	banks := hw.BankCount(cfg.BufferWords, cfg.BankWords)
	checked := 0
	for _, ctrl := range []memctrl.Controller{memctrl.Conventional{}, memctrl.RefreshOptimized{}} {
		opts := envelopeOptions()["axes"]
		opts.Controller, opts.Backend, opts.ErrorBudget = ctrl, "approx-dram", 1
		for _, l := range models.AlexNet().Layers {
			_, c, err := buildEnvelope(l, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := newSweep(&c.full, nil, nil, &opts, c.pts, c.env.maps, banks, cfg.BankWords)
			for i := range c.full.recs {
				r := &c.full.recs[i]
				iv := time.Duration(1e3 + rng.Float64()*5e6)
				o := opts
				o.RefreshInterval = iv
				want := c.full.price(r, &o, &c.pts[r.point], c.env.maps[r.mp], true, banks, cfg.BankWords)
				if got := s.price(i, iv); got != want {
					t.Fatalf("%s record %d at %v: re-priced %v pJ, price %v pJ", l.Name, i, iv, got, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d records re-priced", checked)
}

// TestMemoHoldsThreeOptionSpaces: one default-capacity memo compiles
// the zoo at 45 µs under the default space, RTC × all mappings and the
// three-pattern space, and still records every shape of the third: a
// repeat of it explores nothing. A frontier that kept every record that
// could win would fill the memo with the first two spaces, and the
// third's shapes would be explored on every compile. The first two
// spaces fit in 1,000 records.
func TestMemoHoldsThreeOptionSpaces(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	m := NewMemo(0)
	spaces := envelopeOptions()
	third := spaces["default"]
	third.Patterns = []pattern.Kind{pattern.ID, pattern.OD, pattern.WD}
	compile := func(opts Options) []NetworkStats {
		t.Helper()
		opts.Memo = m
		var out []NetworkStats
		for _, net := range models.Benchmarks() {
			_, ns, err := ExploreNetworkContext(context.Background(), net, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ns)
		}
		return out
	}
	compile(spaces["default"])
	compile(spaces["axes"])
	if st := m.Stats(); st.Records > 1000 {
		t.Errorf("the zoo's two spaces at 45 µs hold %d records, want at most 1000", st.Records)
	}
	compile(third)
	for i, ns := range compile(third) {
		if ns.MemoMisses != 0 {
			t.Errorf("%s: repeat of the third space explored %d layers, want 0", models.Benchmarks()[i].Name, ns.MemoMisses)
		}
	}
	t.Logf("%+v", m.Stats())
}

// FuzzEnvelope builds a random layer's envelope at a random interval
// and checks one random query interval at or above it: the winner is
// pick's on the untrimmed records and the plan a memo-free exhaustive
// exploration's. Every piece's edges are checked without the plan
// comparison.
func FuzzEnvelope(f *testing.F) {
	f.Add(uint8(16), uint8(13), uint8(32), uint8(3), uint8(1), uint32(45_000), uint32(100_000), uint8(0))
	f.Add(uint8(3), uint8(27), uint8(96), uint8(5), uint8(2), uint32(20_000), uint32(734_000), uint8(1))
	f.Add(uint8(64), uint8(7), uint8(64), uint8(1), uint8(1), uint32(45_000), uint32(45_001), uint8(2))
	f.Add(uint8(48), uint8(14), uint8(128), uint8(3), uint8(1), uint32(1_000), uint32(5_000_000), uint8(3))
	cfg := hw.TestAcceleratorEDRAM()
	f.Fuzz(func(t *testing.T, n, hw8, m, k, s uint8, lo, q uint32, mode uint8) {
		l := models.ConvLayer{Name: "fuzz", N: 1 + int(n)%64, H: 1 + int(hw8)%32, M: 1 + int(m)%128,
			K: []int{1, 3, 5}[int(k)%3], S: 1 + int(s)%2}
		l.L, l.P = l.H, l.K/2
		if l.Validate() != nil {
			return
		}
		opts := envelopeOptions()["default"]
		if mode&1 != 0 {
			opts.Traversal, opts.Mapping = "rtc", "all"
		}
		if mode&2 != 0 {
			opts.Controller = memctrl.Conventional{}
		}
		opts.RefreshInterval = time.Duration(max(lo, 1))
		env, c, err := buildEnvelope(l, cfg, opts)
		if err != nil {
			return // no feasible tiling: nothing recorded
		}
		if err := c.check(&env, false); err != nil {
			t.Fatal(err)
		}
		if err := c.checkAt(&env, opts.RefreshInterval+time.Duration(q), true); err != nil {
			t.Fatal(err)
		}
	})
}

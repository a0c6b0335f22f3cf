package memctrl

import (
	"testing"
	"testing/quick"
	"time"

	"rana/internal/edram"
	"rana/internal/pattern"
	"rana/internal/retention"
)

func TestNeedsFor(t *testing.T) {
	lt := pattern.Lifetimes{
		Input:  100 * time.Microsecond,
		Output: 0,
		Weight: 45 * time.Microsecond,
	}
	n := NeedsFor(lt, 45*time.Microsecond)
	if !n.Inputs || n.Outputs || !n.Weights {
		t.Errorf("needs = %+v", n)
	}
	if !n.Any() {
		t.Error("Any should be true")
	}
	n = NeedsFor(lt, 200*time.Microsecond)
	if n.Any() {
		t.Errorf("no lifetime reaches 200µs, needs = %+v", n)
	}
}

func TestAllocate(t *testing.T) {
	bs := pattern.Storage{Inputs: 16384 + 1, Outputs: 16384, Weights: 1}
	a := Allocate(bs, 16384, 100)
	if a.InputBanks != 2 || a.OutputBanks != 1 || a.WeightBanks != 1 {
		t.Errorf("alloc = %+v", a)
	}
	if a.Total() != 4 {
		t.Errorf("total = %d", a.Total())
	}
	// Oversubscription caps at the bank budget.
	big := pattern.Storage{Inputs: 16384 * 10, Outputs: 16384 * 10, Weights: 16384 * 10}
	a = Allocate(big, 16384, 12)
	if a.Total() > 12 {
		t.Errorf("oversubscribed alloc = %+v totals %d banks", a, a.Total())
	}
	// Zero storage gets zero banks.
	if z := Allocate(pattern.Storage{}, 16384, 4); z.Total() != 0 {
		t.Errorf("empty alloc = %+v", z)
	}
}

func TestAllocatePanicsOnBadBank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Allocate(pattern.Storage{}, 0, 4)
}

func TestPulses(t *testing.T) {
	if Pulses(0, 45*time.Microsecond) != 0 {
		t.Error("zero exec should have zero pulses")
	}
	if got := Pulses(100*time.Microsecond, 45*time.Microsecond); got != 2 {
		t.Errorf("pulses = %d, want 2", got)
	}
	if got := Pulses(45*time.Microsecond, 45*time.Microsecond); got != 1 {
		t.Errorf("exact multiple pulses = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive interval should panic")
		}
	}()
	Pulses(time.Second, 0)
}

func TestConventionalController(t *testing.T) {
	c := Conventional{}
	if c.Name() != "Normal" {
		t.Error("name")
	}
	alloc := Allocation{InputBanks: 1, OutputBanks: 1, WeightBanks: 1}
	// Any need refreshes the ENTIRE buffer — used or not (Fig. 18a).
	if got := c.WordsPerPulse(alloc, Needs{Inputs: true}, 46, 16384); got != 46*16384 {
		t.Errorf("conventional words = %d", got)
	}
	if got := c.WordsPerPulse(alloc, Needs{}, 46, 16384); got != 0 {
		t.Errorf("no needs should refresh nothing, got %d", got)
	}
}

func TestRefreshOptimizedController(t *testing.T) {
	c := RefreshOptimized{}
	if c.Name() != "Optimized" {
		t.Error("name")
	}
	alloc := Allocation{InputBanks: 3, OutputBanks: 5, WeightBanks: 2}
	// Only flagged data types' banks refresh; unused banks never.
	if got := c.WordsPerPulse(alloc, Needs{Inputs: true, Weights: true}, 46, 16384); got != 5*16384 {
		t.Errorf("optimized words = %d, want %d", got, 5*16384)
	}
	if got := c.WordsPerPulse(alloc, Needs{}, 46, 16384); got != 0 {
		t.Errorf("idle words = %d", got)
	}
}

// TestOptimizedNeverExceedsConventional is the Fig. 18b property: the
// refresh-optimized controller never refreshes more than the conventional
// one for the same allocation and needs.
func TestOptimizedNeverExceedsConventional(t *testing.T) {
	f := func(ib, ob, wb uint8, ni, no, nw bool, banks uint8) bool {
		total := int(banks%64) + 1
		alloc := Allocate(pattern.Storage{
			Inputs:  uint64(ib) * 16384,
			Outputs: uint64(ob) * 16384,
			Weights: uint64(wb) * 16384,
		}, 16384, total)
		needs := Needs{Inputs: ni, Outputs: no, Weights: nw}
		opt := RefreshOptimized{}.WordsPerPulse(alloc, needs, total, 16384)
		conv := Conventional{}.WordsPerPulse(alloc, needs, total, 16384)
		return opt <= conv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRefreshWords(t *testing.T) {
	alloc := Allocation{InputBanks: 2}
	needs := Needs{Inputs: true}
	got := RefreshWords(RefreshOptimized{}, 90*time.Microsecond, 45*time.Microsecond, alloc, needs, 46, 16384)
	if got != 2*2*16384 {
		t.Errorf("refresh words = %d, want %d", got, 2*2*16384)
	}
}

func TestDivider(t *testing.T) {
	d, err := NewDivider(200e6, 45*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ratio() != 9000 {
		t.Errorf("ratio = %d, want 9000 (45µs at 200MHz)", d.Ratio())
	}
	if d.Period() != 45*time.Microsecond {
		t.Errorf("period = %v", d.Period())
	}
	// Quantization never exceeds the request.
	d, err = NewDivider(200e6, 734*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Period() > 734*time.Microsecond {
		t.Errorf("achieved period %v exceeds request", d.Period())
	}
	for _, bad := range []struct {
		hz float64
		p  time.Duration
	}{{0, time.Second}, {1e6, 0}, {1e3, time.Nanosecond}} {
		if _, err := NewDivider(bad.hz, bad.p); err == nil {
			t.Errorf("NewDivider(%g, %v) should fail", bad.hz, bad.p)
		}
	}
}

func TestIssuerAgainstEDRAM(t *testing.T) {
	buf, err := edram.New(4, 128, retention.Typical(), 9)
	if err != nil {
		t.Fatal(err)
	}
	div, err := NewDivider(200e6, 45*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	is, err := NewIssuer(div, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := is.SetFlags([]bool{true, false, true, false}); err != nil {
		t.Fatal(err)
	}
	// Advance 10 pulses: 2 flagged banks × 128 words × 10 pulses.
	words := is.AdvanceTo(450*time.Microsecond, buf)
	if words != 2*128*10 {
		t.Errorf("issued = %d, want %d", words, 2*128*10)
	}
	if is.Issued() != words {
		t.Errorf("Issued() = %d", is.Issued())
	}
	// Analytic accounting agrees with the tick-level model.
	alloc := Allocation{InputBanks: 1, OutputBanks: 0, WeightBanks: 1}
	needs := Needs{Inputs: true, Weights: true}
	analytic := RefreshWords(RefreshOptimized{}, 450*time.Microsecond, 45*time.Microsecond, alloc, needs, 4, 128)
	if analytic != words {
		t.Errorf("analytic %d != tick-level %d", analytic, words)
	}
}

func TestIssuerValidation(t *testing.T) {
	div, _ := NewDivider(1e6, time.Millisecond)
	if _, err := NewIssuer(nil, 4); err == nil {
		t.Error("nil divider should fail")
	}
	if _, err := NewIssuer(div, 0); err == nil {
		t.Error("zero banks should fail")
	}
	is, _ := NewIssuer(div, 4)
	if err := is.SetFlags([]bool{true}); err == nil {
		t.Error("flag length mismatch should fail")
	}
	got := is.Flags()
	if len(got) != 4 {
		t.Errorf("flags len = %d", len(got))
	}
	got[0] = true
	if is.Flags()[0] {
		t.Error("Flags must return a copy")
	}
}

func TestIssuerFlagReload(t *testing.T) {
	// §IV-D2: next layer's flags load when the current layer completes.
	buf, _ := edram.New(2, 64, retention.Typical(), 1)
	div, _ := NewDivider(200e6, 45*time.Microsecond)
	is, _ := NewIssuer(div, 2)
	_ = is.SetFlags([]bool{true, true})
	w1 := is.AdvanceTo(90*time.Microsecond, buf) // 2 pulses × 2 banks
	_ = is.SetFlags([]bool{false, false})
	w2 := is.AdvanceTo(900*time.Microsecond, buf) // flags off: nothing
	if w1 != 2*2*64 || w2 != 0 {
		t.Errorf("w1=%d w2=%d", w1, w2)
	}
}

func TestDifferentialRefreshWords(t *testing.T) {
	alloc := Allocation{InputBanks: 2, OutputBanks: 3, WeightBanks: 1}
	lt := pattern.Lifetimes{
		Input:  100 * time.Microsecond, // beats 734µs: refresh-free there
		Output: 100 * time.Microsecond,
		Weight: 5 * time.Millisecond, // long-lived: refreshed everywhere
	}
	exec := 2 * time.Millisecond
	// Uniform 734µs: only weights refresh: floor(2000/734)=2 pulses × 1 bank.
	uni := DifferentialRefreshWords(exec, Uniform(734*time.Microsecond), alloc, lt, 100)
	if uni != 2*1*100 {
		t.Errorf("uniform = %d, want 200", uni)
	}
	// Differential: weights at the conservative 45µs, activations at 734µs.
	diff := DifferentialRefreshWords(exec,
		Intervals{Inputs: 734 * time.Microsecond, Outputs: 734 * time.Microsecond, Weights: 45 * time.Microsecond},
		alloc, lt, 100)
	want := Pulses(exec, 45*time.Microsecond) * 1 * 100
	if diff != want {
		t.Errorf("differential = %d, want %d", diff, want)
	}
	if diff <= uni {
		t.Error("conservative weight protection must cost more refresh")
	}
	// Zero interval disables refresh for a type entirely.
	none := DifferentialRefreshWords(exec, Intervals{}, alloc, lt, 100)
	if none != 0 {
		t.Errorf("zero intervals = %d", none)
	}
}

// TestWordsPerPulseMonotone pins the Controller contract: from every
// allocation and flag set in the table, clearing any one Needs flag or
// dropping any one bank count never raises the per-pulse word count.
func TestWordsPerPulseMonotone(t *testing.T) {
	const totalBanks, bankWords = 12, 16384
	allocs := []Allocation{
		{}, {InputBanks: 1}, {OutputBanks: 3, WeightBanks: 2},
		{InputBanks: 4, OutputBanks: 4, WeightBanks: 4}, {InputBanks: 7, OutputBanks: 1, WeightBanks: 4},
	}
	for _, c := range []Controller{Conventional{}, RefreshOptimized{}} {
		for _, a := range allocs {
			for bits := 0; bits < 8; bits++ {
				n := Needs{Inputs: bits&1 != 0, Outputs: bits&2 != 0, Weights: bits&4 != 0}
				w := c.WordsPerPulse(a, n, totalBanks, bankWords)
				for _, fewer := range []Needs{{false, n.Outputs, n.Weights}, {n.Inputs, false, n.Weights}, {n.Inputs, n.Outputs, false}} {
					if got := c.WordsPerPulse(a, fewer, totalBanks, bankWords); got > w {
						t.Errorf("%s %+v: clearing a flag %+v -> %+v raised words %d -> %d", c.Name(), a, n, fewer, w, got)
					}
				}
				for _, smaller := range []Allocation{
					{max(a.InputBanks-1, 0), a.OutputBanks, a.WeightBanks},
					{a.InputBanks, max(a.OutputBanks-1, 0), a.WeightBanks},
					{a.InputBanks, a.OutputBanks, max(a.WeightBanks-1, 0)},
				} {
					if got := c.WordsPerPulse(smaller, n, totalBanks, bankWords); got > w {
						t.Errorf("%s %+v: dropping a bank to %+v raised words %d -> %d", c.Name(), n, smaller, w, got)
					}
				}
			}
		}
	}
}

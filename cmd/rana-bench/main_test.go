package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesSnapshot drives the full flow on the cheapest model and
// checks the emitted document carries every field the trajectory
// comparison needs.
func TestRunWritesSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_sched.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-models", "AlexNet", "-iters", "1", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("invalid snapshot JSON: %v", err)
	}
	if len(snap.Networks) != 1 || snap.Networks[0].Model != "AlexNet" {
		t.Fatalf("networks = %+v, want one AlexNet entry", snap.Networks)
	}
	nb := snap.Networks[0]
	if nb.Baseline.NsPerOp <= 0 || nb.Optimized.NsPerOp <= 0 {
		t.Fatalf("missing timings: %+v", nb)
	}
	if nb.Baseline.Evaluated <= 0 {
		t.Fatalf("baseline evaluated = %d, want > 0", nb.Baseline.Evaluated)
	}
	if nb.Baseline.MemoHits != 0 || nb.Baseline.MemoMisses != 0 {
		t.Fatalf("baseline must not touch the memo: %+v", nb.Baseline)
	}
	if nb.Optimized.MemoMisses <= 0 {
		t.Fatalf("optimized memo misses = %d, want > 0", nb.Optimized.MemoMisses)
	}
	if nb.Baseline.Workers != 1 || nb.Optimized.Workers < 1 {
		t.Fatalf("workers: baseline %d, optimized %d", nb.Baseline.Workers, nb.Optimized.Workers)
	}
	if nb.SpeedupX <= 0 {
		t.Fatalf("speedup = %v, want > 0", nb.SpeedupX)
	}
	// The sweep rebuilds AlexNet's five shapes at each of the seven
	// falling intervals after the first, then answers all 5 × 8 layers
	// of the rising pass from the last frontiers.
	if len(snap.Sweeps) != 1 {
		t.Fatalf("sweeps = %+v, want one AlexNet entry", snap.Sweeps)
	}
	sw := snap.Sweeps[0]
	if len(sw.IntervalsUS) != 8 || sw.Descending.Rebuilds != 35 || sw.Ascending.MemoHits != 40 || sw.Ascending.Rebuilds != 0 {
		t.Fatalf("sweep = %+v, want 8 intervals, 35 rebuilds down, 40 hits and no rebuild up", sw)
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Fatalf("stdout missing confirmation: %q", stdout.String())
	}
}

// TestRunFlagErrors covers the exit-2 validation paths.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-iters", "0"},
		{"-models", "NopeNet"},
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestRegressPinsOneWorkerWorkCounts: between two GOMAXPROCS=1
// snapshots a cell's candidates evaluated must not move in either
// direction; when either side ran more workers the count is
// timing-dependent and only allocations are gated.
func TestRegressPinsOneWorkerWorkCounts(t *testing.T) {
	cell := func(evaluated int) NetBench {
		r := Run{Evaluated: evaluated}
		return NetBench{Model: "AlexNet", Baseline: r, Optimized: r, Warm: r}
	}
	for _, c := range []struct {
		priorProcs, procs, priorEvals, evals, fails int
	}{
		{1, 1, 100, 100, 0},
		{1, 1, 100, 99, 3},
		{1, 1, 100, 101, 3},
		{2, 1, 100, 99, 0},
		{1, 2, 100, 99, 0},
	} {
		prior, err := json.Marshal(Snapshot{GOMAXPROCS: c.priorProcs, Networks: []NetBench{cell(c.priorEvals)}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "prior.json")
		if err := os.WriteFile(path, prior, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		fails, err := checkRegression(&stdout, path, &Snapshot{GOMAXPROCS: c.procs, Networks: []NetBench{cell(c.evals)}})
		if err != nil {
			t.Fatal(err)
		}
		if fails != c.fails {
			t.Errorf("%+v: %d failures, want %d:\n%s", c, fails, c.fails, stdout.String())
		}
	}
}

// TestRegressPinsDescendingSweepAllocs: between two GOMAXPROCS=1
// snapshots a sweep's descending-pass allocations must not move in
// either direction; when either side ran more workers they are not
// compared.
func TestRegressPinsDescendingSweepAllocs(t *testing.T) {
	sweep := func(allocs uint64) SweepBench {
		return SweepBench{Model: "VGG", Descending: SweepPass{AllocsPerOp: allocs}}
	}
	for _, c := range []struct {
		priorProcs, procs int
		priorAllocs       uint64
		allocs            uint64
		fails             int
	}{
		{1, 1, 35, 35, 0},
		{1, 1, 35, 34, 1},
		{1, 1, 35, 36, 1},
		{2, 1, 35, 36, 0},
		{1, 2, 35, 36, 0},
	} {
		prior, err := json.Marshal(Snapshot{GOMAXPROCS: c.priorProcs, Sweeps: []SweepBench{sweep(c.priorAllocs)}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "prior.json")
		if err := os.WriteFile(path, prior, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		fails, err := checkRegression(&stdout, path, &Snapshot{GOMAXPROCS: c.procs, Sweeps: []SweepBench{sweep(c.allocs)}})
		if err != nil {
			t.Fatal(err)
		}
		if fails != c.fails {
			t.Errorf("%+v: %d failures, want %d:\n%s", c, fails, c.fails, stdout.String())
		}
	}
}

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
	// Each sweep, on the default space and on RTC × all mappings, builds
	// AlexNet's five shapes at 1000 µs and rebuilds each once at 734 µs,
	// down to the conventional 45 µs, so the six lower intervals are all
	// hits (5 × 6); the rising pass answers all 5 × 8 layers from those
	// frontiers.
	if len(snap.Sweeps) != 2 || snap.Sweeps[0].Space != "" || snap.Sweeps[1].Space != "rtc-all" {
		t.Fatalf("sweeps = %+v, want AlexNet on the default space and on rtc-all", snap.Sweeps)
	}
	for _, sw := range snap.Sweeps {
		if sw.Model != "AlexNet" || len(sw.IntervalsUS) != 8 || sw.Descending.Rebuilds != 5 || sw.Descending.MemoHits != 30 ||
			sw.Ascending.MemoHits != 40 || sw.Ascending.Rebuilds != 0 {
			t.Fatalf("sweep = %+v, want 8 intervals, 5 rebuilds and 30 hits down, 40 hits and no rebuild up", sw)
		}
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

// TestRegressKeysSweepsBySpace: a sweep is compared with the prior
// sweep of its own model and space, so a new space's sweep pins nothing
// until a snapshot carries it, and its ascending pass must still not
// allocate.
func TestRegressKeysSweepsBySpace(t *testing.T) {
	sweep := func(space string, down, up uint64) SweepBench {
		return SweepBench{Model: "VGG", Space: space, Descending: SweepPass{AllocsPerOp: down}, Ascending: SweepPass{AllocsPerOp: up}}
	}
	prior, err := json.Marshal(Snapshot{GOMAXPROCS: 1, Sweeps: []SweepBench{sweep("", 35, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prior.json")
	if err := os.WriteFile(path, prior, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rtcDown, rtcUp uint64
		fails          int
	}{
		{50, 0, 0},
		{50, 2, 1},
	} {
		var stdout bytes.Buffer
		snap := &Snapshot{GOMAXPROCS: 1, Sweeps: []SweepBench{sweep("", 35, 0), sweep("rtc-all", c.rtcDown, c.rtcUp)}}
		fails, err := checkRegression(&stdout, path, snap)
		if err != nil {
			t.Fatal(err)
		}
		if fails != c.fails {
			t.Errorf("%+v: %d failures, want %d:\n%s", c, fails, c.fails, stdout.String())
		}
	}
}

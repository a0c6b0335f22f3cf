// Command perfbench is the repository's benchmark: closed-loop workloads
// against an in-process ranad, end-to-end metrics from untraced runs and
// per-layer metrics from traced runs. README.md explains the workloads
// and what each metric should move. Run it from the repository root
// through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload retention-sweep --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --workload fleet-cache --seed 1 --seconds 12 --trace 1
//	bash perfbench/run.sh --steady 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// heldOutSeed is never used while the benchmark or a change is tuned;
// re-run a claim on it before accepting it.
const heldOutSeed = 9001

// runLimit bounds one run; past it the process exits without a result
// rather than overrun its caller's deadline.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := fs.Uint64("seed", 1, fmt.Sprintf("workload seed (%d is held out for re-checking claims)", heldOutSeed))
	seconds := fs.Int("seconds", 12, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	steady := fs.Int("steady", 0, "run every workload (or --workload) this many times with seeds 1..n and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *steady < 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1, --trace 0 or 1, --steady not negative")
		return 2
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *steady > 0 {
		return steadiness(root, *workload, *steady, *seconds, stdout, stderr)
	}
	if *workload == "" {
		fmt.Fprintln(stderr, "perfbench: --workload is required")
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := runOne(root, *workload, uint64(*seed), time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// repoRoot finds the repository root: the working directory, or its
// parent when run from perfbench/ (as go test does).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenDir)); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root: " + goldenDir + " not found")
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef is one metric BENCHMARK.json defines.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// contract is the part of BENCHMARK.json this program reads: the
// metrics it prints (end-to-end from untraced runs, per-layer from
// traced ones) and the workloads.
type contract struct {
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readContract(root string) (*contract, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// runOne runs one workload once, untraced or traced.
func runOne(root, workload string, seed uint64, seconds time.Duration, trace bool, out io.Writer) (*result, error) {
	c, err := readContract(root)
	if err != nil {
		return nil, err
	}
	goldens, err := loadGoldens(root)
	if err != nil {
		return nil, err
	}
	b := newBench(root, workload, seed, seconds, goldens, out)
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%v trace=%v GOMAXPROCS=%d\n",
		workload, seed, seconds, trace, runtime.GOMAXPROCS(0))
	var values map[string]float64
	if trace {
		values, err = b.runTraced()
	} else {
		var r e2e
		r, err = b.runE2E()
		values = r.values()
	}
	if err != nil {
		return nil, err
	}
	failed := b.fails.count()
	for _, why := range b.fails.reasons {
		fmt.Fprintf(out, "FAILED: %s\n", why)
	}
	defs := c.EndToEnd
	if trace {
		defs = c.PerLayer
	}
	metrics, err := metricsFor(defs, values)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	attempted := int(b.ck.checked.Load())
	return &result{Correct: failed == 0 && attempted > 0, Attempted: max(attempted, 1), Failed: failed, Metrics: metrics}, nil
}

// metricsFor builds the result's metrics from measured values: exactly
// the metrics defs names, each with its unit.
func metricsFor(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, the benchmark defines %d", len(values), len(defs))
	}
	return out, nil
}

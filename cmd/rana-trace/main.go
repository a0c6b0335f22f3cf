// Command rana-trace dumps or analyzes the memory-access trace of one
// layer execution on the test accelerator — the §III-A "memory access
// tracing" facility as a tool.
//
// Usage:
//
//	rana-trace -model VGG -layer conv4_2 -pattern OD            # analysis
//	rana-trace -model VGG -layer conv4_2 -pattern OD -dump      # raw CSV
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rana"
	"rana/internal/hw"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rana-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "ResNet", "benchmark network")
	layer := fs.String("layer", "res4a_branch1", "layer name")
	pat := fs.String("pattern", "OD", "computation pattern: ID, OD or WD")
	dump := fs.Bool("dump", false, "dump the raw trace (CSV) instead of the analysis")
	buckets := fs.Int("buckets", 8, "histogram buckets for the analysis view")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var net rana.Network
	found := false
	for _, n := range rana.Benchmarks() {
		if n.Name == *model {
			net, found = n, true
		}
	}
	if !found {
		fmt.Fprintf(stderr, "rana-trace: unknown model %q\n", *model)
		return 2
	}
	l, ok := net.Layer(*layer)
	if !ok {
		fmt.Fprintf(stderr, "rana-trace: layer %q not in %s\n", *layer, *model)
		return 2
	}
	k, ok := pattern.ParseKind(*pat)
	if !ok {
		fmt.Fprintf(stderr, "rana-trace: unknown pattern %q\n", *pat)
		return 2
	}

	cfg := hw.TestAcceleratorEDRAM()
	ti := sched.NaturalTiling(l, cfg)
	walk, mem := sim.WalkWithTrace(l, k, ti, cfg)

	if *dump {
		if err := mem.Write(stdout); err != nil {
			fmt.Fprintln(stderr, "rana-trace:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "%s/%s under %v at %v\n", *model, *layer, k, ti)
	fmt.Fprintf(stdout, "  events:      %d\n", len(mem.Events))
	fmt.Fprintf(stdout, "  cycles:      %d (%v)\n", walk.Cycles, walk.ExecTime.Round(100))
	c := mem.Count()
	fmt.Fprintf(stdout, "  input words:  %d read\n", c.Reads[0])
	fmt.Fprintf(stdout, "  output words: %d read, %d written\n", c.Reads[1], c.Writes[1])
	fmt.Fprintf(stdout, "  weight words: %d read\n", c.Reads[2])
	gaps := mem.MaxWriteGap()
	fmt.Fprintf(stdout, "  max output rewrite gap: %v (self-refresh interval)\n", mem.Duration(gaps[1]).Round(100))
	fmt.Fprintf(stdout, "  lifetimes: in=%v out=%v w=%v\n",
		walk.Lifetimes.Input.Round(100), walk.Lifetimes.Output.Round(100), walk.Lifetimes.Weight.Round(100))
	fmt.Fprintf(stdout, "\n  traffic over time (%d windows, words in/out/w):\n", *buckets)
	for i, b := range mem.Histogram(*buckets) {
		fmt.Fprintf(stdout, "    w%-2d %10d %10d %10d\n", i, b[0], b[1], b[2])
	}
	return 0
}

// Command rana-sched compiles a benchmark network with the full RANA
// framework and prints the layerwise configurations: the hybrid
// computation pattern assignment of Stage 2 and the per-layer refresh
// flags of Stage 3.
//
// Usage:
//
//	rana-sched -model ResNet
//	rana-sched -model AlexNet -export   # serialized compilation artifact
//	rana-sched -model AlexNet -json     # plan in the shared wire format
//	rana-sched -model VGG -server http://ranad:8080   # compile remotely
//	rana-sched -model AlexNet -backend approx-dram          # open point axis
//	rana-sched -model AlexNet -backend approx-dram@v0.8     # pinned point
//
// With -server the compilation runs on a ranad instance instead of in
// process, through the retrying client: 429 (shed) and 503
// (breaker/drain) responses are retried with Retry-After-aware backoff,
// so a briefly saturated ranad looks like a slow one, not a failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rana"
	"rana/internal/mem"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rana-sched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "ResNet", "benchmark network: AlexNet, VGG, GoogLeNet or ResNet")
	export := fs.Bool("export", false, "emit the compiled layerwise configuration artifact as JSON")
	asJSON := fs.Bool("json", false, "emit the compiled plan in the shared wire format (the golden/serving encoding)")
	server := fs.String("server", "", "compile on a ranad instance (base URL) instead of in process")
	strategy := fs.String("search", "", `Stage 2 exploration strategy: "exhaustive", "pruned" or "beam" (default pruned)`)
	parallelism := fs.Int("parallelism", 0, "how many layers to explore at once (0 = GOMAXPROCS; plans are identical at every level)")
	backendSpec := fs.String("backend", "", `memory backend "name" or "name@point" (default: the platform's technology adapter; a bare name searches every point within the error budget)`)
	traversal := fs.String("traversal", "", `tile-traversal axis spec: "linear", "rtc" or "blocked<n>", comma-separated (default: linear nest only)`)
	mapping := fs.String("mapping", "", `data-mapping axis spec: "row-major", "interleave" or "all" (default: row-major only)`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *export && *asJSON {
		fmt.Fprintln(stderr, "rana-sched: -export and -json are mutually exclusive")
		return 2
	}
	if err := (search.Strategy(*strategy)).Validate(); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 2
	}
	if *parallelism < 0 || *parallelism > sched.MaxParallelism {
		fmt.Fprintf(stderr, "rana-sched: -parallelism %d outside [0, %d]\n", *parallelism, sched.MaxParallelism)
		return 2
	}
	backend, point, err := splitBackendSpec(*backendSpec)
	if err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 2
	}
	if _, err := sched.ParseTraversalSpec(*traversal); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 2
	}
	if _, err := sched.ParseMappingSpec(*mapping); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 2
	}
	if *server != "" {
		if (backend != "" || *traversal != "" || *mapping != "") && !*asJSON {
			fmt.Fprintln(stderr, "rana-sched: -backend/-traversal/-mapping with -server require -json (the compile endpoint has no search axes)")
			return 2
		}
		return runRemote(*server, *model, *strategy, backend, point, *traversal, *mapping, *parallelism, *export, *asJSON, stdout, stderr)
	}

	var net rana.Network
	found := false
	for _, n := range rana.Benchmarks() {
		if n.Name == *model {
			net, found = n, true
		}
	}
	if !found {
		fmt.Fprintf(stderr, "rana-sched: unknown model %q\n", *model)
		return 2
	}

	fw := rana.NewFramework()
	fw.Search = search.Strategy(*strategy)
	fw.Parallelism = *parallelism
	fw.Backend = backend
	fw.OperatingPoint = point
	fw.Traversal = *traversal
	fw.Mapping = *mapping
	out, err := fw.Compile(net)
	if err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	if *export {
		if err := out.ExportConfig(stdout); err != nil {
			fmt.Fprintln(stderr, "rana-sched:", err)
			return 1
		}
		return 0
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rana.EncodePlan(out.Plan)); err != nil {
			fmt.Fprintln(stderr, "rana-sched:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintln(stdout, out.Summary())
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-20s %-4s %-24s %10s %12s %8s\n",
		"Layer", "Pat", "Tiling", "Exec", "MaxLifetime", "Refresh")
	for i, lc := range out.Layerwise {
		lp := out.Plan.Layers[i]
		flagged := 0
		for _, f := range lc.RefreshFlags {
			if f {
				flagged++
			}
		}
		refresh := "off"
		if flagged > 0 {
			refresh = fmt.Sprintf("%d banks", flagged)
		}
		// Non-default traversal/mapping cells are annotated at line end;
		// default-axis runs keep the historical table bytes.
		axes := ""
		if lp.Traversal != "" {
			axes += "  " + lp.Traversal
		}
		if lp.Mapping != "" {
			axes += "  " + lp.Mapping
		}
		fmt.Fprintf(stdout, "%-20s %-4s %-24s %10s %12s %8s%s\n",
			lc.Layer.Name, lc.Pattern, lc.Tiling.String(),
			lp.Analysis.ExecTime.Round(100), lp.Analysis.Lifetimes.Max().Round(100), refresh, axes)
	}
	fmt.Fprintln(stdout)
	e := out.Energy
	fmt.Fprintf(stdout, "energy: computing %.3f mJ, buffer %.3f mJ, refresh %.3f mJ, off-chip %.3f mJ, total %.3f mJ\n",
		e.Computing/1e9, e.BufferAccess/1e9, e.Refresh/1e9, e.OffChip/1e9, e.Total()/1e9)
	if e.Wear > 0 {
		fmt.Fprintf(stdout, "wear: %.3f mJ\n", e.Wear/1e9)
	}
	return 0
}

// splitBackendSpec validates a -backend flag against the registry and
// splits it into the (backend, point) pair the framework takes. A bare
// backend name leaves the point empty — the open search axis — which is
// why this does not reuse ParseSpec's nominal-defaulting directly.
func splitBackendSpec(spec string) (backend, point string, err error) {
	if spec == "" {
		return "", "", nil
	}
	if _, _, err := mem.ParseSpec(spec); err != nil {
		return "", "", err
	}
	backend = spec
	if i := strings.IndexByte(spec, '@'); i >= 0 {
		backend, point = spec[:i], spec[i+1:]
	}
	return backend, point, nil
}

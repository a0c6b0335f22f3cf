package main

// Steadiness mode: run each workload several times, one process per run
// with seeds 1..n, and print for every end-to-end metric its median,
// quartiles and relative spread next to the bound BENCHMARK.json fixes.
// The spread is the interquartile distance over the median, the figure a
// comparison of two commits holds against the bound; every metric,
// setup_s included, is held to its bound.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

func steadiness(root, only string, runs, seconds int, stdout, stderr io.Writer) int {
	c, err := readContract(root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	status := 0
	for _, name := range workloadNames {
		if only != "" && name != only {
			continue
		}
		values := map[string][]float64{}
		for seed := 1; seed <= runs; seed++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Dir = root
			cmd.Stderr = stderr
			out, err := cmd.Output()
			var res result
			if err == nil {
				err = json.Unmarshal(lastLine(out), &res)
			}
			if err != nil || !res.Correct || res.Failed > 0 {
				fmt.Fprintf(w, "%s seed %d: run failed (%v, %d of %d operations failed)\n", name, seed, err, res.Failed, res.Attempted)
				status = 1
				continue
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(w, "%s seed %d:", name, seed)
			for _, m := range c.EndToEnd {
				fmt.Fprintf(w, " %s=%.5g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Fprintln(w)
			w.Flush()
		}
		fmt.Fprintf(w, "\n%s: %d runs of %d s\n%-16s %12s %12s %12s %8s %8s\n",
			name, runs, seconds, "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range c.EndToEnd {
			xs := values[m.Name]
			q1, med, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := "ok"
			switch {
			case len(xs) < 2:
				verdict = "too few runs"
				status = 1
			case sp > m.Bound:
				verdict = "EXCEEDS BOUND"
				status = 1
			case sp > m.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(w, "%-16s %12.5g %12.5g %12.5g %7.2f%% %7.0f%%  %s\n",
				m.Name, q1, med, q3, 100*sp, 100*m.Bound, verdict)
		}
		w.Flush()
	}
	return status
}

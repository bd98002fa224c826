// Command perfbench is the repository benchmark. It runs one named
// workload (or all of them) for a fixed wall-clock budget, checks that
// the simulated outputs are correct and repeat exactly, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// The untraced run (-trace 0) drives each workload through the
// experiment functions the CLI calls and reports the
// end-to-end metrics. The traced run (-trace 1) rebuilds the same trials
// from the layers' exported calls with spans around each call, asserts
// that its simulated outputs equal the untraced run's, and reports the
// per-layer metrics.
//
// Usage (from the module root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload grid|churn|soak|deploy|all -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloadNames lists the workloads in run order for -workload all.
var workloadNames = []string{"grid", "churn", "soak", "deploy"}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected workloads and prints the result.
// It returns the process exit code: 0 when every correctness check
// passed, 1 when one failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, "|")+"|all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (same seed, same inputs)")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds the timed phase runs for")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for results, spans and temporary daemon state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", o.seconds)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if newWorkload(n, o.seed, fullSize, o.workdir) == nil {
			fmt.Fprintf(stderr, "perfbench: unknown -workload %q (valid: %s|all)\n", o.workload, strings.Join(workloadNames, "|"))
			return 2
		}
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	h := hostInfo()
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q workers=%d\n",
		h.NumCPU, h.Gomaxprocs, h.GoVersion, h.CPUModel, poolWorkers())

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		res, err := runWorkload(n, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		if err := writeResult(o, n, h, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Errors lists the correctness checks that failed (result file only).
	Errors []string `json:"-"`
}

// writeResult stores one workload's result with the host metadata under
// the work directory, so every number is kept with the machine it was
// measured on.
func writeResult(o options, name string, h host, res result) error {
	dir := filepath.Join(o.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := 0
	if o.trace {
		mode = 1
	}
	rec := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  float64  `json:"seconds"`
		Trace    int      `json:"trace"`
		Host     host     `json:"host"`
		Errors   []string `json:"errors,omitempty"`
		result
	}{name, o.seed, o.seconds, mode, h, res.Errors, res}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, o.seed, mode))
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printMetrics renders a metric map as sorted "name value unit" lines.
func printMetrics(w io.Writer, prefix string, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%-36s %14.6g %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}

// Command perfbench is the repository's end-to-end and per-layer benchmark
// (see README.md and ../BENCHMARK.json). One invocation runs one workload:
//
//	perfbench --workload sim-dense|sim-wide|gateway-live --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, and reports the per-layer
// metrics from spans recorded around the calls into each layer. Inputs
// derive from --seed alone. Every run checks the program's outputs; a
// failed correctness gate or determinism pin makes the exit status 1.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// buildDir holds everything a run writes (job logs, span files), relative
// to the working directory.
const buildDir = ".bench_build"

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// result is what a workload run produces.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string // correctness-gate and determinism failures
	notes     []string // human-readable context lines
}

func (r *result) add(name string, value float64, unit string, samples int, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples, note})
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options) (*result, error){
	"sim-dense":    func(o options) (*result, error) { return runSim(simDense, o) },
	"sim-wide":     func(o options) (*result, error) { return runSim(simWide, o) },
	"gateway-live": runLive,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sim-dense, sim-wide or gateway-live")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload sim-dense|sim-wide|gateway-live --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(o)
	if err == nil && o.trace {
		err = complete(res, perLayer, true)
	} else if err == nil {
		err = complete(res, endToEnd, false)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	printResult(o, res)
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func printResult(o options, res *result) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("perfbench %s seed %d, %s metrics:\n", o.workload, o.seed, mode)
	for _, n := range res.notes {
		fmt.Printf("  # %s\n", n)
	}
	for _, m := range res.metrics {
		line := fmt.Sprintf("  %-34s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.samples)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-34s %14.6g %-6s n=%d\n", "failed_share", share(float64(res.failed), float64(res.attempted)), "share", res.attempted)
	for _, p := range res.problems {
		fmt.Printf("  FAIL: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, make(map[string]value)}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runDir is a fresh per-process directory under buildDir.
func runDir(o options) (string, error) {
	dir := filepath.Join(buildDir, "runs", fmt.Sprintf("%s-seed%d-pid%d", o.workload, o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// spanFile names the span dump of a traced run.
func spanFile(o options) string { return fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed) }

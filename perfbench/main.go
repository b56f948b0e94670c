// Command perfbench is the repository benchmark: one command that takes a
// workload name and a seed, generates the workload's designs, runs a timed
// loop over the public gatewords entry points, checks every output, and
// prints the metrics as one JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload b14 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// attaches the program's Observers to every other op, records a span around
// each layer call, and reports the per-layer metrics instead. The spans are
// written to <out>/trace/<workload>-<seed>.json when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back to main: the op tallies, any
// run-level check failures, the metrics of the requested kind, and the
// tracer holding the spans of a traced run.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	notes     []string
	tr        *tracer
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.problem("metric %s is not finite (%v)", name, v)
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"b14":   runB14,
	"b18":   runB18,
	"audit": runAudit,
	"serve": runServe,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: b14, b18, audit or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for trace files and the serve journal")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || flag.NArg() != 0 || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload b14|b18|audit|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if out.tr != nil {
		path := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
		if err := out.tr.write(path, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		out.note("trace: %d spans written to %s", len(out.tr.spans), path)
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	for _, p := range out.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("# %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(line)))
}

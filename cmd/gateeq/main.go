// Command gateeq checks two gate-level Verilog netlists for combinational
// equivalence, observable by observable: primary outputs are matched by net
// name and flip-flop next-state functions by instance name (reported as
// "ff:<name>"), over a shared input space of primary inputs and flip-flop
// states. Each pair runs through the staged prover: structural hashing in a
// shared AIG, 64-lane random simulation of every pair at once (which yields
// a concrete counterexample on refutation), then a SAT proof by an
// incremental CDCL solver shared across all outputs.
//
// Usage:
//
//	gateeq [-json] [-pin name=0,name=1] [-sim N] [-sat-budget N] [-restarts N] [-q] a.v b.v
//
// One of the two files may be "-" for stdin. -pin forces nets to constants
// in both designs before comparison (the Reduce tie-offs "$const0" and
// "$const1" are always pinned). -sim sets the number of 64-pattern
// simulation rounds (negative skips simulation), -sat-budget the conflict
// cap of each SAT query (negative skips SAT, leaving undecided outputs
// unknown), -restarts the CDCL Luby restart interval (negative disables
// restarts); 0 keeps each default. -json prints the per-output verdicts as
// JSON, and -q drops the summary line on stderr. The exit code is the aggregate verdict:
// 0 equivalent, 1 not equivalent, 2 unknown (budget exhausted), 3 usage or
// input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gatewords"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gateeq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the per-output verdicts as JSON")
	pinFlag := fs.String("pin", "", "comma-separated name=0/name=1 constants applied to both designs")
	budget := fs.Int("sat-budget", 0, "conflict cap per SAT query (0 = default, negative disables SAT)")
	simRounds := fs.Int("sim", 0, "64-lane random simulation rounds before SAT (0 = default, negative skips)")
	restarts := fs.Int("restarts", 0, "CDCL Luby restart base interval in conflicts (0 = default, negative disables restarts)")
	quiet := fs.Bool("q", false, "suppress the summary line on stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: gateeq [-json] [-pin name=0,name=1] [-sim N] [-sat-budget N] [-restarts N] [-q] a.v b.v")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 3
	}

	pins, err := parsePins(*pinFlag)
	if err != nil {
		fmt.Fprintf(stderr, "gateeq: %v\n", err)
		return 3
	}

	var designs [2]*gatewords.Design
	stdinUsed := false
	for i, arg := range []string{fs.Arg(0), fs.Arg(1)} {
		d, usedStdin, err := loadDesign(arg, stdin, stdinUsed)
		if err != nil {
			fmt.Fprintf(stderr, "gateeq: %v\n", err)
			return 3
		}
		stdinUsed = stdinUsed || usedStdin
		designs[i] = d
	}

	rep, err := gatewords.CheckEquivalence(designs[0], designs[1], pins, gatewords.EquivalenceOptions{
		MaxConflicts: *budget,
		SimRounds:    *simRounds,
		Restarts:     *restarts,
	})
	if err != nil {
		fmt.Fprintf(stderr, "gateeq: %v\n", err)
		return 3
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			A       string `json:"a"`
			B       string `json:"b"`
			Verdict string `json:"verdict"`
			*gatewords.EquivalenceReport
		}{designs[0].Name(), designs[1].Name(), rep.Verdict(), rep}); err != nil {
			fmt.Fprintf(stderr, "gateeq: %v\n", err)
			return 3
		}
	} else {
		writeText(stdout, rep)
	}
	if !*quiet {
		fmt.Fprintf(stderr, "gateeq: %s vs %s: %s (%d output(s) compared)\n",
			designs[0].Name(), designs[1].Name(), rep.Verdict(), len(rep.Outputs))
	}

	switch rep.Verdict() {
	case "not-equivalent":
		return 1
	case "unknown":
		return 2
	}
	return 0
}

func writeText(w io.Writer, rep *gatewords.EquivalenceReport) {
	for _, o := range rep.Outputs {
		switch o.Verdict {
		case "not-equivalent":
			fmt.Fprintf(w, "%-24s NOT EQUIVALENT  cex: %s\n", o.Name, formatCex(o.Cex))
		case "unknown":
			fmt.Fprintf(w, "%-24s unknown         (%s budget exhausted)\n", o.Name, o.Stage)
		default:
			fmt.Fprintf(w, "%-24s equivalent      (%s)\n", o.Name, o.Stage)
		}
	}
	for _, n := range rep.OnlyInA {
		fmt.Fprintf(w, "%-24s only in first design — not compared\n", n)
	}
	for _, n := range rep.OnlyInB {
		fmt.Fprintf(w, "%-24s only in second design — not compared\n", n)
	}
}

// formatCex renders a counterexample deterministically, inputs sorted.
func formatCex(cex map[string]bool) string {
	names := make([]string, 0, len(cex))
	for n := range cex {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		v := 0
		if cex[n] {
			v = 1
		}
		parts[i] = fmt.Sprintf("%s=%d", n, v)
	}
	if len(parts) == 0 {
		return "(any input)"
	}
	return strings.Join(parts, " ")
}

// parsePins parses "a=0,b=1" into a pin map.
func parsePins(s string) (map[string]bool, error) {
	if s == "" {
		return nil, nil
	}
	pins := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -pin entry %q (want name=0 or name=1)", part)
		}
		switch val {
		case "0":
			pins[name] = false
		case "1":
			pins[name] = true
		default:
			return nil, fmt.Errorf("bad -pin value %q for %q (want 0 or 1)", val, name)
		}
	}
	return pins, nil
}

// loadDesign reads a design from a file or (once) from stdin.
func loadDesign(arg string, stdin io.Reader, stdinUsed bool) (*gatewords.Design, bool, error) {
	if arg == "-" {
		if stdinUsed {
			return nil, false, fmt.Errorf("stdin (\"-\") may be used for only one design")
		}
		data, err := io.ReadAll(stdin)
		if err != nil {
			return nil, false, fmt.Errorf("reading stdin: %w", err)
		}
		d, err := gatewords.ParseVerilogString("<stdin>", string(data))
		return d, true, err
	}
	d, err := gatewords.ParseVerilogFile(arg)
	return d, false, err
}

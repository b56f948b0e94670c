package netlint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// sortDiagnostics orders diagnostics by (rule, message, first net, first
// gate). Rules already visit elements in ID order, so this makes the full
// output deterministic — two runs over the same netlist are byte-identical.
func sortDiagnostics(ds []Diagnostic) {
	first := func(ss []string) string {
		if len(ss) == 0 {
			return ""
		}
		return ss[0]
	}
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		if fa, fb := first(a.Nets), first(b.Nets); fa != fb {
			return fa < fb
		}
		return first(a.Gates) < first(b.Gates)
	})
}

// WriteText emits one line per diagnostic:
//
//	error NL003 multi-driver: net "y" driven by both "g1" and "g2"
//
// followed by a summary line.
func (r *Result) WriteText(w io.Writer) error {
	for _, d := range r.Diagnostics {
		if _, err := fmt.Fprintf(w, "%-5s %s %s: %s\n", d.Severity, d.Rule, d.Name, d.Message); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s: %d error(s), %d warning(s), %d info(s)\n",
		r.Module, r.Errors, r.Warnings, r.Infos)
	return err
}

// WriteJSON emits the result as indented JSON. The encoding is
// deterministic: diagnostics are pre-sorted and the document contains no
// maps or timestamps.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

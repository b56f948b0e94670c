package passes

import (
	"go/ast"
	"go/token"
	"go/types"

	"gatewords/internal/anlz"
)

// ObsKeys enforces the closed observability schema: the obs package's Stage,
// Counter, and Gauge types are uint8 enums whose members are the only valid
// identifiers, because the goldens (TestTable1Goldens,
// TestCheckNetlistsGoldens) pin counters by name. A raw integer literal materialized as one of those types
// bypasses the enum (and its NumStages/NumCounters bounds), so it is flagged
// everywhere outside the obs package itself.
var ObsKeys = &anlz.Analyzer{
	Name:     "obskeys",
	Doc:      "flag raw literals used as obs.Stage/Counter/Gauge identifiers",
	Contract: "the obs counter schema is closed: stage/counter/gauge identifiers are named enum constants, never numeric literals",
	Run:      runObsKeys,
}

// obsEnum reports whether t is one of the obs identifier enums. Matched by
// final package-path segment so fixtures can model the obs package locally.
func obsEnum(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || lastSegment(obj.Pkg().Path()) != "obs" {
		return false
	}
	switch obj.Name() {
	case "Stage", "Counter", "Gauge":
		return true
	}
	return false
}

func runObsKeys(pass *anlz.Pass) error {
	if pass.Pkg != nil && lastSegment(pass.Pkg.Path()) == "obs" {
		return nil // the enum's home defines the literals
	}
	seen := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				// An untyped constant materialized as an enum type: argument
				// passing, assignment, composite literal element, ... Literal
				// zero stays legal — it is the zero value and the canonical
				// origin of bounds loops (for c := Counter(0); c < NumCounters).
				if n.Kind == token.INT && n.Value != "0" && !seen[n.Pos()] {
					if t := pass.TypeOf(n); t != nil && obsEnum(t) {
						seen[n.Pos()] = true
						pass.Reportf(n.Pos(), "raw literal %s used as %s; use a named enum constant — the schema is closed", n.Value, types.TypeString(t, nil))
					}
				}
			case *ast.CallExpr:
				// Explicit conversion of a literal: obs.Counter(3).
				tv, ok := pass.Info.Types[n.Fun]
				if !ok || !tv.IsType() || !obsEnum(tv.Type) || len(n.Args) != 1 {
					return true
				}
				if lit, ok := ast.Unparen(n.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.INT && lit.Value != "0" && !seen[lit.Pos()] {
					seen[lit.Pos()] = true
					pass.Reportf(lit.Pos(), "raw literal %s converted to %s; use a named enum constant — the schema is closed", lit.Value, types.TypeString(tv.Type, nil))
				}
			}
			return true
		})
	}
	return nil
}

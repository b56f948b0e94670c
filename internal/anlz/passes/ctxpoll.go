package passes

import (
	"go/ast"
	"go/types"

	"gatewords/internal/anlz"
	"gatewords/internal/anlz/anlzutil"
)

// CtxPoll enforces the cooperative-cancellation contract: any loop that does
// stage-level work per iteration (simulation, SAT calls, reduction passes —
// recognized by calls into the marker set below) must poll for cancellation,
// directly or through a callee, so Options.Context deadlines cut runs off at
// group/subgroup/trial granularity instead of running netlist-sized trip
// counts to completion.
var CtxPoll = &anlz.Analyzer{
	Name:     "ctxpoll",
	Doc:      "flag work loops that never poll for cancellation",
	Contract: "every loop doing per-iteration stage work honors Options.Context: cancellation yields a strict prefix of results, never a hung run",
	Packages: []string{
		"gatewords/internal/core",
		"gatewords/internal/reduce",
		"gatewords/internal/eqcheck",
	},
	Run: runCtxPoll,
}

// workMarker reports whether fn is a stage-level unit of work. Marker
// packages are matched by final path segment so fixtures can model them.
func workMarker(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	switch lastSegment(fn.Pkg().Path()) {
	case "obs":
		return name == "Do"
	case "guard":
		return name == "Inject"
	case "reduce":
		return name == "Apply" || name == "VerifyCones"
	case "eqcheck":
		return name == "CheckLits" || name == "CheckNetlists" || name == "Solve"
	}
	return false
}

// cancelMarker reports whether fn observes cancellation: context.Context's
// Err/Done, or a module helper named for the act of checking (cancelled,
// Cancelled, canceled, Canceled).
func cancelMarker(fn *types.Func) bool {
	if anlzutil.IsFunc(fn, "context", "Err") || anlzutil.IsFunc(fn, "context", "Done") {
		return true
	}
	switch fn.Name() {
	case "cancelled", "Cancelled", "canceled", "Canceled":
		return true
	}
	return false
}

func runCtxPoll(pass *anlz.Pass) error {
	// Work must be near the surface of the loop body (the loop is the stage
	// driver); cancellation may be buried deeper in a callee, and a call the
	// checker cannot resolve is conservatively assumed to check.
	work := &anlzutil.CallWalk{Loader: pass.Loader, MaxDepth: 2, Match: workMarker}
	// A dynamic call directly in the loop body is conservatively assumed to
	// check (function-valued poll hooks); one buried in a callee is not — a
	// deep interface call should not launder a missing poll.
	cancel := &anlzutil.CallWalk{
		Loader:   pass.Loader,
		MaxDepth: 4,
		Match:    cancelMarker,
		Dynamic:  func(_ *ast.CallExpr, depth int) bool { return depth == 0 },
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			if work.Found(body, pass.Info) && !cancel.Found(body, pass.Info) {
				pass.Reportf(n.Pos(), "loop performs stage-level work but never polls for cancellation; check Options.Context (or a cancelled() helper) each iteration")
			}
			return true
		})
	}
	return nil
}

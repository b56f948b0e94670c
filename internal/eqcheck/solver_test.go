package eqcheck_test

// solver_test.go pins the warm-Solver contracts added with the incremental
// CDCL engine: encode-once across the retry ladder, the inclusive conflict
// budget as seen through Options, assumption solves agreeing with fresh
// solvers, cancellation between ladder attempts, and the new observability
// counters.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"gatewords/internal/aig"
	"gatewords/internal/eqcheck"
	"gatewords/internal/obs"
)

// TestEncodeOnceAcrossRetries is the regression test for the retry-ladder
// waste bug: escalating the conflict budget used to rebuild the Tseitin
// encoding per attempt. Now the ladder re-searches the same instance — the
// query must report escalations but exactly one encoding pass.
func TestEncodeOnceAcrossRetries(t *testing.T) {
	t.Run("cdcl", func(t *testing.T) {
		g, left, right := wideXorMiter()
		opt := eqcheck.Options{SimRounds: 2, MaxConflicts: 5, RetryUnknown: 20}
		r := eqcheck.CheckLits(g, left, right, opt)
		if r.Verdict != eqcheck.Equivalent {
			t.Fatalf("ladder did not finish the proof: %+v", r)
		}
		if r.Stats.Retries < 1 {
			t.Fatalf("Retries = %d, want >= 1 (budget 5 must not suffice)", r.Stats.Retries)
		}
		if r.Stats.Encodings != 1 {
			t.Fatalf("Encodings = %d across %d retries, want exactly 1", r.Stats.Encodings, r.Stats.Retries)
		}
	})
}

// TestBudgetInclusiveThroughOptions checks the exported face of the
// off-by-one fix: an undecided query consumed its budget exactly — not
// budget+1 conflicts as before.
func TestBudgetInclusiveThroughOptions(t *testing.T) {
	t.Run("cdcl", func(t *testing.T) {
		g, left, right := wideXorMiter()
		opt := eqcheck.Options{SimRounds: 2, MaxConflicts: 5}
		r := eqcheck.CheckLits(g, left, right, opt)
		if r.Verdict != eqcheck.Unknown {
			t.Fatalf("budget 5 decided the wide-XOR miter: %+v", r)
		}
		if r.Stats.Conflicts != 5 {
			t.Fatalf("Conflicts = %d under budget 5, want exactly 5", r.Stats.Conflicts)
		}
	})
}

// TestSolveUnderMatchesFreshSolvers sweeps one cone under every control
// assignment on a single warm solver and checks each verdict against a fresh
// solver given the same assumptions: incremental state must never change an
// answer.
func TestSolveUnderMatchesFreshSolvers(t *testing.T) {
	g := aig.New()
	a, b := g.Input("a"), g.Input("b")
	s0, s1 := g.Input("s0"), g.Input("s1")
	andAB, orAB := g.And(a, b), g.Or(a, b)
	f := g.Or(g.And(s0, andAB), g.And(s0.Not(), orAB))
	h := g.Or(g.And(s1, orAB), g.And(s1.Not(), andAB))
	goal := g.Xor(f, h)

	opt := eqcheck.Options{SimRounds: -1}
	warm := eqcheck.NewSolver(g, opt)
	vecs := [][]aig.Lit{
		{s0, s1},             // and vs or: differ
		{s0, s1.Not()},       // and vs and: identical
		{s0.Not(), s1},       // or vs or: identical
		{s0.Not(), s1.Not()}, // or vs and: differ
		nil,                  // free controls: satisfiable
	}
	for i, as := range vecs {
		rw := warm.SolveUnder(goal, as)
		rf := eqcheck.NewSolver(g, opt).SolveUnder(goal, as)
		if rw.Status != rf.Status {
			t.Fatalf("vector %d: warm=%v fresh=%v", i, rw.Status, rf.Status)
		}
		wantEnc := 0
		if i == 0 {
			wantEnc = 1 // the union cone is encoded on the first query only
		}
		if rw.Stats.Encodings != wantEnc {
			t.Errorf("vector %d: warm Encodings = %d, want %d", i, rw.Stats.Encodings, wantEnc)
		}
		if rw.Stats.AssumptionSolves != 1 {
			t.Errorf("vector %d: AssumptionSolves = %d, want 1", i, rw.Stats.AssumptionSolves)
		}
		if rw.Status != eqcheck.Sat {
			continue
		}
		// A model must satisfy the goal AND every assumption.
		assign := make([]bool, g.NumInputs())
		for name, v := range rw.Model {
			l, ok := g.InputByName(name)
			if !ok {
				t.Fatalf("model names unknown input %q", name)
			}
			assign[inputIndexOf(t, g, l)] = v
		}
		if !g.EvalBool(assign, goal) {
			t.Errorf("vector %d: model %v does not satisfy the goal", i, rw.Model)
		}
		for _, al := range as {
			if !g.EvalBool(assign, al) {
				t.Errorf("vector %d: model %v violates an assumption", i, rw.Model)
			}
		}
	}
}

// TestCheckLitsUnderControl proves equivalence under one control assignment
// and refutes it under the opposite one, on the same warm solver; the
// counterexample must respect the assumption it was found under.
func TestCheckLitsUnderControl(t *testing.T) {
	g := aig.New()
	a, b, s0 := g.Input("a"), g.Input("b"), g.Input("s0")
	andAB, orAB := g.And(a, b), g.Or(a, b)
	f := g.Or(g.And(s0, andAB), g.And(s0.Not(), orAB))

	solver := eqcheck.NewSolver(g, eqcheck.Options{SimRounds: -1})
	if r := solver.CheckLitsUnder(f, andAB, []aig.Lit{s0}); r.Verdict != eqcheck.Equivalent {
		t.Fatalf("f|s0 vs a∧b: %+v", r)
	}
	r := solver.CheckLitsUnder(f, andAB, []aig.Lit{s0.Not()})
	if r.Verdict != eqcheck.NotEquivalent {
		t.Fatalf("f|¬s0 vs a∧b not refuted: %+v", r)
	}
	assign := make([]bool, g.NumInputs())
	for name, v := range r.Cex {
		l, ok := g.InputByName(name)
		if !ok {
			t.Fatalf("cex names unknown input %q", name)
		}
		assign[inputIndexOf(t, g, l)] = v
	}
	if !g.EvalBool(assign, s0.Not()) {
		t.Fatalf("cex %v violates the assumption ¬s0 it was found under", r.Cex)
	}
	if g.EvalBool(assign, f) == g.EvalBool(assign, andAB) {
		t.Fatalf("cex %v does not distinguish the sides", r.Cex)
	}
}

// TestCancelledBetweenRetries pins the in-query cancellation point: a
// cancelled context stops the retry ladder before the first escalation, with
// the dedicated "cancelled" stage and no retries charged.
func TestCancelledBetweenRetries(t *testing.T) {
	t.Run("cdcl", func(t *testing.T) {
		g, left, right := wideXorMiter()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opt := eqcheck.Options{SimRounds: 2, MaxConflicts: 5, RetryUnknown: 20, Context: ctx}
		r := eqcheck.CheckLits(g, left, right, opt)
		if r.Verdict != eqcheck.Unknown || r.Stage != "cancelled" {
			t.Fatalf("verdict=%v stage=%q, want unknown/cancelled", r.Verdict, r.Stage)
		}
		if r.Stats.Retries != 0 {
			t.Fatalf("Retries = %d after cancellation, want 0", r.Stats.Retries)
		}
	})
}

// TestWarmSolverSecondQueryFree re-proves an already-encoded miter: the warm
// solver must answer from its existing clause database without a second
// encoding pass.
func TestWarmSolverSecondQueryFree(t *testing.T) {
	g := aig.New()
	a, b, c := g.Input("a"), g.Input("b"), g.Input("c")
	maj1 := g.Or(g.Or(g.And(a, b), g.And(a, c)), g.And(b, c))
	maj2 := g.Or(g.And(a, g.Or(b, c)), g.And(b, c))
	solver := eqcheck.NewSolver(g, eqcheck.Options{SimRounds: -1})

	r1 := solver.CheckLits(maj1, maj2)
	if r1.Verdict != eqcheck.Equivalent || r1.Stage != "sat" {
		t.Fatalf("first proof: %+v", r1)
	}
	if r1.Stats.Encodings != 1 {
		t.Fatalf("first proof Encodings = %d, want 1", r1.Stats.Encodings)
	}
	r2 := solver.CheckLits(maj1, maj2)
	if r2.Verdict != eqcheck.Equivalent {
		t.Fatalf("second proof: %+v", r2)
	}
	if r2.Stats.Encodings != 0 {
		t.Fatalf("second proof Encodings = %d, want 0 (cone already encoded)", r2.Stats.Encodings)
	}
}

// TestObserverCountsNewCounters checks the four counters added for the CDCL
// engine flow through the observer and match the per-query stats.
func TestObserverCountsNewCounters(t *testing.T) {
	g, left, right := wideXorMiter()
	rec := obs.New()
	opt := eqcheck.Options{SimRounds: 2, MaxConflicts: 5, RetryUnknown: 20, Observer: rec}
	r := eqcheck.CheckLits(g, left, right, opt)
	if r.Verdict != eqcheck.Equivalent {
		t.Fatalf("ladder did not finish the proof: %+v", r)
	}
	if r.Stats.LearnedClauses == 0 {
		t.Error("CDCL proof learned no clauses")
	}
	if r.Stats.AssumptionSolves != r.Stats.Retries+1 {
		t.Errorf("AssumptionSolves = %d, want retries+1 = %d", r.Stats.AssumptionSolves, r.Stats.Retries+1)
	}
	for _, c := range []struct {
		ctr  obs.Counter
		want int
	}{
		{obs.CtrSATLearned, r.Stats.LearnedClauses},
		{obs.CtrSATRestarts, r.Stats.Restarts},
		{obs.CtrSATAssumpSolves, r.Stats.AssumptionSolves},
		{obs.CtrSATModelsRejected, 0},
	} {
		if got := rec.Count(c.ctr); got != int64(c.want) {
			t.Errorf("counter %v = %d, want %d", c.ctr, got, c.want)
		}
	}
}

// TestStatsJSONFieldNames guards the report schema: the new Stats fields
// must keep their snake_case wire names.
func TestStatsJSONFieldNames(t *testing.T) {
	raw, err := json.Marshal(eqcheck.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"encodings", "learned_clauses", "restarts", "assumption_solves", "models_rejected",
	} {
		if !strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("Stats JSON missing field %q: %s", key, raw)
		}
	}
}

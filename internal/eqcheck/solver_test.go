package eqcheck_test

// solver_test.go pins the Solver contracts of the incremental CDCL engine:
// encode-once across the retry ladder, the inclusive conflict budget as seen
// through Options, assumption solves agreeing with fresh solvers, a reset
// solver answering exactly as a new one, cancellation between ladder
// attempts, and the observability counters.

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
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
		r := eqcheck.NewSolver(g, opt).CheckLits(left, right)
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
		r := eqcheck.NewSolver(g, opt).CheckLits(left, right)
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

// resetTestAIG grows a random AIG for TestResetMatchesNewSolver: random
// gates over the inputs and earlier gates, plus pairs of XOR trees over one
// random subset of the inputs built in opposite association orders. Such a
// pair is equivalent, so simulation never refutes its miter and the SAT stage
// has to prove it, and a small conflict budget cannot.
type resetTestAIG struct {
	g     *aig.AIG
	rng   *rand.Rand
	ins   []aig.Lit
	pool  []aig.Lit    // every literal built so far
	pairs [][2]aig.Lit // equivalent XOR-tree pairs
}

func newResetTestAIG(seed int64) *resetTestAIG {
	r := &resetTestAIG{g: aig.New(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 12; i++ {
		r.ins = append(r.ins, r.g.Input(string(rune('a'+i))))
	}
	r.pool = append(r.pool, r.ins...)
	r.grow(20)
	return r
}

// lit picks a literal of the pool, negated half the time.
func (r *resetTestAIG) lit() aig.Lit {
	l := r.pool[r.rng.Intn(len(r.pool))]
	if r.rng.Intn(2) == 0 {
		l = l.Not()
	}
	return l
}

// grow adds n random gates and, every third call on average, one more
// equivalent XOR-tree pair.
func (r *resetTestAIG) grow(n int) {
	for i := 0; i < n; i++ {
		var l aig.Lit
		switch r.rng.Intn(4) {
		case 0:
			l = r.g.Xor(r.lit(), r.lit())
		case 1:
			l = r.g.Mux(r.lit(), r.lit(), r.lit())
		default:
			l = r.g.And(r.lit(), r.lit())
		}
		r.pool = append(r.pool, l)
	}
	if r.rng.Intn(3) == 0 || len(r.pairs) == 0 {
		sub := r.rng.Perm(len(r.ins))[:6+r.rng.Intn(len(r.ins)-5)]
		left, right := aig.False, aig.False
		for i := range sub {
			left = r.g.Xor(left, r.ins[sub[i]])
			right = r.g.Xor(r.ins[sub[len(sub)-1-i]], right)
		}
		r.pairs = append(r.pairs, [2]aig.Lit{left, right})
		r.pool = append(r.pool, left, right)
	}
}

// TestResetMatchesNewSolver holds Reset to its contract: one solver, reset
// before every query, answers a sequence of SolveUnder and CheckLitsUnder
// queries under assumptions exactly as a new solver per query does — status,
// stage, model or counterexample, and every Stats field — while the AIG grows
// between queries. The small-budget option set makes the retry ladder run
// and leaves some queries Unknown.
func TestResetMatchesNewSolver(t *testing.T) {
	sets := []struct {
		name string
		opt  eqcheck.Options
	}{
		{"default", eqcheck.Options{}},
		{"nosim", eqcheck.Options{SimRounds: -1}},
		{"budget3-retry2", eqcheck.Options{MaxConflicts: 3, RetryUnknown: 2}},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			var sat, unknown, retried int
			tally := func(stage string, unk bool, st eqcheck.Stats) {
				if stage == "sat" {
					sat++
				}
				if unk {
					unknown++
				}
				if st.Retries > 0 {
					retried++
				}
			}
			for seed := int64(1); seed <= 8; seed++ {
				r := newResetTestAIG(seed)
				reset := eqcheck.NewSolver(r.g, set.opt)
				for q := 0; q < 16; q++ {
					r.grow(r.rng.Intn(6))
					var assumps []aig.Lit
					for k := r.rng.Intn(3); k > 0; k-- {
						assumps = append(assumps, r.lit())
					}
					reset.Reset()
					if q%2 == 0 {
						l := r.lit()
						if r.rng.Intn(2) == 0 {
							// The miter of an equivalent pair: unsatisfiable.
							p := r.pairs[r.rng.Intn(len(r.pairs))]
							l = r.g.Xor(p[0], p[1])
						}
						got := reset.SolveUnder(l, assumps)
						want := eqcheck.NewSolver(r.g, set.opt).SolveUnder(l, assumps)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d query %d: SolveUnder on the reset solver\n%+v\nnew solver\n%+v", seed, q, got, want)
						}
						tally(got.Stage, got.Status == eqcheck.SolveUnknown, got.Stats)
						continue
					}
					a, b := r.lit(), r.lit()
					if r.rng.Intn(2) == 0 {
						p := r.pairs[r.rng.Intn(len(r.pairs))]
						a, b = p[0], p[1]
					}
					got := reset.CheckLitsUnder(a, b, assumps)
					want := eqcheck.NewSolver(r.g, set.opt).CheckLitsUnder(a, b, assumps)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d query %d: CheckLitsUnder on the reset solver\n%+v\nnew solver\n%+v", seed, q, got, want)
					}
					tally(got.Stage, got.Verdict == eqcheck.Unknown, got.Stats)
				}
			}
			if sat == 0 {
				t.Fatal("no query reached the SAT stage")
			}
			if set.opt.MaxConflicts > 0 && (unknown == 0 || retried == 0) {
				t.Fatalf("%d Unknown and %d retried queries; the budget should leave some of each", unknown, retried)
			}
			t.Logf("%d queries reached the SAT stage, %d ended Unknown, %d retried", sat, unknown, retried)
		})
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
		r := eqcheck.NewSolver(g, opt).CheckLits(left, right)
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
	r := eqcheck.NewSolver(g, opt).CheckLits(left, right)
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

package eqcheck

// cdcl_test.go unit-tests the CDCL engine directly at the CNF level — the
// equivalence-pipeline tests in eqcheck_test.go cover it end to end.
// Pigeonhole instances (PHP(n+1,n), classically UNSAT and hopeless for pure
// search at moderate n) exercise learning, restarts, and database reduction.

import (
	"testing"

	"gatewords/internal/aig"
)

// pigeonholeClauses returns the CNF of "pigeons pigeons fit into holes
// holes": every pigeon is placed, no two share a hole. Variable p*holes+h
// means pigeon p sits in hole h; the instance is UNSAT iff pigeons > holes.
func pigeonholeClauses(pigeons, holes int) (nVars int, cls [][]intLit) {
	v := func(p, h int) int { return p*holes + h }
	for p := 0; p < pigeons; p++ {
		c := make([]intLit, holes)
		for h := 0; h < holes; h++ {
			c[h] = posLit(v(p, h))
		}
		cls = append(cls, c)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				cls = append(cls, []intLit{negLit(v(p, h)), negLit(v(q, h))})
			}
		}
	}
	return pigeons * holes, cls
}

func cdclFor(nVars int, cls [][]intLit, lubyBase int) *cdcl {
	s := newCDCL(lubyBase)
	for i := 0; i < nVars; i++ {
		s.newVar()
	}
	for _, c := range cls {
		s.addClause(c...)
	}
	return s
}

func TestCDCLBasicSatUnsat(t *testing.T) {
	s := newCDCL(DefaultRestartBase)
	a, b := s.newVar(), s.newVar()
	s.addClause(posLit(a), posLit(b))
	s.addClause(negLit(a), posLit(b))
	if st := s.solveUnder(nil, -1); st != statusSat {
		t.Fatalf("solve = %v, want sat", st)
	}
	if !s.modelValue(b) {
		t.Fatal("model violates (a∨b)∧(¬a∨b): b must be true")
	}
	// The same warm solver under the contradicting assumption, then again
	// without it: assumption unsatisfiability must not poison the instance.
	if st := s.solveUnder([]intLit{negLit(b)}, -1); st != statusUnsat {
		t.Fatalf("solve under ¬b = %v, want unsat", st)
	}
	if s.unsat {
		t.Fatal("assumption conflict marked the instance globally unsat")
	}
	if st := s.solveUnder(nil, -1); st != statusSat {
		t.Fatal("warm solver no longer sat after an unsat assumption solve")
	}
}

func TestCDCLAssumptionsIncremental(t *testing.T) {
	// Implication chain x0→x1→…→x5 on one warm solver.
	const n = 6
	s := newCDCL(DefaultRestartBase)
	x := make([]int, n)
	for i := range x {
		x[i] = s.newVar()
	}
	for i := 0; i+1 < n; i++ {
		s.addClause(negLit(x[i]), posLit(x[i+1]))
	}
	if st := s.solveUnder([]intLit{posLit(x[0]), negLit(x[n-1])}, -1); st != statusUnsat {
		t.Fatal("x0 ∧ ¬x5 not refuted through the chain")
	}
	if st := s.solveUnder([]intLit{posLit(x[0])}, -1); st != statusSat {
		t.Fatal("x0 alone not satisfiable")
	}
	for i := range x {
		if !s.modelValue(x[i]) {
			t.Fatalf("x%d false in a model under x0: chain not propagated", i)
		}
	}
	if st := s.solveUnder([]intLit{negLit(x[0])}, -1); st != statusSat {
		t.Fatal("¬x0 not satisfiable")
	}
	if s.modelValue(x[0]) {
		t.Fatal("model contradicts the assumption ¬x0")
	}
}

func TestCDCLPigeonholeUnsat(t *testing.T) {
	nVars, cls := pigeonholeClauses(6, 5)
	s := cdclFor(nVars, cls, 8) // small restart base: force restarts
	if st := s.solveUnder(nil, -1); st != statusUnsat {
		t.Fatalf("PHP(6,5) = %v, want unsat", st)
	}
	if s.stats.learned == 0 {
		t.Error("UNSAT proof of PHP(6,5) learned no clauses")
	}
	if s.stats.restarts == 0 {
		t.Error("no restart fired despite base 8 on a pigeonhole instance")
	}
}

// TestCDCLReduceDBSoundness forces learned-clause reduction at nearly every
// restart (cap 1, restart base 1) and checks the proof still lands: deleting
// low-activity learnt clauses must never delete soundness.
func TestCDCLReduceDBSoundness(t *testing.T) {
	nVars, cls := pigeonholeClauses(6, 5)
	s := cdclFor(nVars, cls, 1)
	s.maxLearnts = 1
	if st := s.solveUnder(nil, -1); st != statusUnsat {
		t.Fatalf("PHP(6,5) under aggressive reduceDB = %v, want unsat", st)
	}
}

// TestCDCLBudgetInclusive pins the off-by-one fix: a budget of N resolves at
// most N conflicts — exactly N when the instance needs more — and a budget of
// 0 performs no search at all. The exhausted solver then escalates warm.
func TestCDCLBudgetInclusive(t *testing.T) {
	nVars, cls := pigeonholeClauses(8, 7)
	s := cdclFor(nVars, cls, DefaultRestartBase)

	if st := s.solveUnder(nil, 0); st != statusUnknown {
		t.Fatalf("budget 0 = %v, want unknown", st)
	}
	if s.stats.conflicts != 0 {
		t.Fatalf("budget 0 resolved %d conflicts, want 0", s.stats.conflicts)
	}

	if st := s.solveUnder(nil, 10); st != statusUnknown {
		t.Fatalf("budget 10 = %v, want unknown", st)
	}
	if s.stats.conflicts != 10 {
		t.Fatalf("budget 10 resolved %d conflicts, want exactly 10", s.stats.conflicts)
	}

	// Unlimited retry on the same warm solver: the 10 conflicts above stay
	// learned, and the proof completes.
	if st := s.solveUnder(nil, -1); st != statusUnsat {
		t.Fatal("warm escalation failed to prove PHP(8,7)")
	}
}

// TestCDCLPigeonholeBoundary checks every pigeonhole shape around the
// SAT/UNSAT boundary against its closed form: PHP(p,h) is satisfiable iff
// p <= h, and a satisfying model must make every clause true.
func TestCDCLPigeonholeBoundary(t *testing.T) {
	for holes := 1; holes <= 4; holes++ {
		for pigeons := holes; pigeons <= holes+1; pigeons++ {
			nVars, cls := pigeonholeClauses(pigeons, holes)
			s := cdclFor(nVars, cls, 4)
			want := statusUnsat
			if pigeons <= holes {
				want = statusSat
			}
			if got := s.solveUnder(nil, -1); got != want {
				t.Errorf("PHP(%d,%d) = %v, want %v", pigeons, holes, got, want)
				continue
			}
			if want != statusSat {
				continue
			}
			for _, c := range cls {
				sat := false
				for _, l := range c {
					sat = sat || s.modelValue(litVar(l)) == (l&1 == 0)
				}
				if !sat {
					t.Errorf("PHP(%d,%d): model violates clause %v", pigeons, holes, c)
				}
			}
		}
	}
}

func TestLubySequence(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// TestModelVerificationRejectsCorruptModel drives the re-simulation guard
// directly: a model corrupted after the solve must be rejected rather than
// surface as a counterexample (the caller then counts Stats.ModelsRejected
// and degrades to Unknown).
func TestModelVerificationRejectsCorruptModel(t *testing.T) {
	g := aig.New()
	a, b := g.Input("a"), g.Input("b")
	goal := g.And(a, b)
	s := NewSolver(g, Options{SimRounds: -1})
	if res := s.Solve(goal); res.Status != Sat {
		t.Fatalf("a∧b not sat: %+v", res)
	}
	if _, ok := s.modelFromCDCL(goal); !ok {
		t.Fatal("genuine model rejected")
	}
	for i := range s.sat.model {
		s.sat.model[i] = -1 // force every CNF variable false: a∧b now fails
	}
	if _, ok := s.modelFromCDCL(goal); ok {
		t.Fatal("corrupted model passed re-simulation")
	}
}

// TestNextBudgetCap pins the retry ladder's cap: a budget already at the cap
// is not escalated, and a doubling that would pass it stops at it.
func TestNextBudgetCap(t *testing.T) {
	s := NewSolver(aig.New(), Options{RetryUnknown: 20})
	if next, ok := s.nextBudget(retryConflictCap, 0); ok {
		t.Fatalf("nextBudget(cap) = %d, want no escalation", next)
	}
	if next, ok := s.nextBudget(retryConflictCap/2+1, 0); !ok || next != retryConflictCap {
		t.Fatalf("nextBudget(cap/2+1) = %d, %v; want the cap %d", next, ok, retryConflictCap)
	}
}

package eqcheck_test

// solver_test.go pins the Solver contracts of the CDCL engine: encode-once
// across the retry ladder, the inclusive conflict budget as seen through
// Options, a reused solver answering exactly as a new one, cancellation
// between ladder attempts, and the observability counters.

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

// growingAIG grows a random AIG for TestReusedSolverMatchesNewSolver: random
// gates over the inputs and earlier gates, plus pairs of XOR trees over one
// random subset of the inputs built in opposite association orders. Such a
// pair is equivalent, so simulation never refutes its miter and the SAT stage
// has to prove it, and a small conflict budget cannot.
type growingAIG struct {
	g     *aig.AIG
	rng   *rand.Rand
	ins   []aig.Lit
	pool  []aig.Lit    // every literal built so far
	pairs [][2]aig.Lit // equivalent XOR-tree pairs
}

func newGrowingAIG(seed int64) *growingAIG {
	r := &growingAIG{g: aig.New(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 12; i++ {
		r.ins = append(r.ins, r.g.Input(string(rune('a'+i))))
	}
	r.pool = append(r.pool, r.ins...)
	r.grow(20)
	return r
}

// lit picks a literal of the pool, negated half the time.
func (r *growingAIG) lit() aig.Lit {
	l := r.pool[r.rng.Intn(len(r.pool))]
	if r.rng.Intn(2) == 0 {
		l = l.Not()
	}
	return l
}

// grow adds n random gates and, every third call on average, one more
// equivalent XOR-tree pair.
func (r *growingAIG) grow(n int) {
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

// TestReusedSolverMatchesNewSolver holds the one query mode to its contract:
// one solver answers a sequence of Solve and CheckLits queries exactly as a
// new solver per query does — status, stage, model or counterexample, and
// every Stats field — while the AIG grows between queries. The small-budget
// option set makes the retry ladder run and leaves some queries Unknown.
func TestReusedSolverMatchesNewSolver(t *testing.T) {
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
				r := newGrowingAIG(seed)
				reused := eqcheck.NewSolver(r.g, set.opt)
				for q := 0; q < 16; q++ {
					r.grow(r.rng.Intn(6))
					if q%2 == 0 {
						l := r.lit()
						if r.rng.Intn(2) == 0 {
							// The miter of an equivalent pair: unsatisfiable.
							p := r.pairs[r.rng.Intn(len(r.pairs))]
							l = r.g.Xor(p[0], p[1])
						}
						got := reused.Solve(l)
						want := eqcheck.NewSolver(r.g, set.opt).Solve(l)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d query %d: Solve on the reused solver\n%+v\nnew solver\n%+v", seed, q, got, want)
						}
						tally(got.Stage, got.Status == eqcheck.SolveUnknown, got.Stats)
						continue
					}
					a, b := r.lit(), r.lit()
					if r.rng.Intn(2) == 0 {
						p := r.pairs[r.rng.Intn(len(r.pairs))]
						a, b = p[0], p[1]
					}
					got := reused.CheckLits(a, b)
					want := eqcheck.NewSolver(r.g, set.opt).CheckLits(a, b)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d query %d: CheckLits on the reused solver\n%+v\nnew solver\n%+v", seed, q, got, want)
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

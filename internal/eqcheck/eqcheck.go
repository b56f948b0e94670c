// Package eqcheck implements combinational equivalence checking over the
// shared And-Inverter Graph of internal/aig. Two functions lowered into one
// AIG are compared by mitering them (XOR) and running a staged pipeline, each
// stage strictly cheaper than the next:
//
//  1. structural hashing — if the two literals are identical the AIG already
//     proved them equal during construction;
//  2. 64-bit-parallel random simulation — each round evaluates 64 input
//     patterns at once; any mismatching lane is extracted as a concrete
//     counterexample assignment. CheckNetlists simulates the miters of all
//     its outputs in one batch, once per check: every miter sees the
//     patterns and the first failing lane it would see alone;
//  3. Tseitin CNF + a CDCL SAT solver (clause learning, VSIDS branching,
//     Luby restarts; see cdcl.go) — UNSAT of the miter proves equivalence,
//     SAT yields a counterexample, and an inclusive conflict budget turns
//     divergence into an explicit Unknown. A budget-exhausted query
//     escalates through a retry ladder interleaved with fresh-seeded
//     simulation chunks (a deterministic sim/SAT portfolio), and each retry
//     is a warm re-search of the same query with the budget doubled.
//
// Every query that reaches the SAT stage starts on an emptied engine: the
// Solver resets its CDCL engine and encoder, keeping their storage, and
// encodes the query's cone from variable 0. A query therefore returns
// exactly what it would on a new Solver, whatever ran before it; reusing a
// Solver across queries (CheckNetlists, the semantic lint rules,
// reduce.VerifyCones) saves allocations and changes no answer.
//
// Per-query work is bounded by the query's cone, not by the shared AIG: the
// encoding, counterexample supports and the replay of every SAT model (which
// evaluates the goal's cone under the model) touch the cone alone.
package eqcheck

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"gatewords/internal/aig"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
)

// Verdict is the outcome of an equivalence check.
type Verdict uint8

const (
	// Equivalent: the two functions are proved equal on all inputs.
	Equivalent Verdict = iota
	// NotEquivalent: a concrete counterexample assignment distinguishes them.
	NotEquivalent
	// Unknown: the budget was exhausted before a proof or refutation.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case NotEquivalent:
		return "not-equivalent"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// Defaults for zero-valued Options fields.
const (
	DefaultSimRounds    = 32
	DefaultMaxConflicts = 20000
	// DefaultRestartBase is the CDCL Luby restart unit: the k-th restart
	// fires after luby(k)·base conflicts.
	DefaultRestartBase = 128
)

const (
	// defaultSeed seeds the simulation stage's pattern generator, so every
	// result is reproducible.
	defaultSeed = 0x51ab_c0de_2015_dac1
	// retryConflictCap bounds the escalating-retry ladder: 8× the default
	// conflict budget, reached after three doublings.
	retryConflictCap = 8 * DefaultMaxConflicts
)

// Options tunes the staged pipeline. The zero value uses the defaults;
// negative SimRounds or MaxConflicts disable that stage entirely.
type Options struct {
	// SimRounds is the number of 64-pattern random-simulation rounds run
	// before falling back to SAT. 0 means DefaultSimRounds; negative skips
	// simulation.
	SimRounds int
	// MaxConflicts bounds the SAT search in solver conflicts; exhausting it
	// yields Unknown. The bound is inclusive: at most MaxConflicts conflicts
	// are resolved, and the conflict that would exceed the budget aborts the
	// search unresolved (a budget of 0 at the engine level performs no
	// search at all). 0 here means DefaultMaxConflicts; negative skips the
	// SAT stage.
	MaxConflicts int
	// RetryUnknown is the depth of the escalating-retry ladder: a SAT stage
	// that exhausts its conflict budget (Unknown) is rerun up to RetryUnknown
	// more times with the budget doubled each attempt, but never raised past
	// 8 × DefaultMaxConflicts conflicts; once it cannot rise, a remaining
	// Unknown is final. A retry is a warm re-search of the same
	// query — its clause database, learned clauses and branching activities
	// carry over, so escalation costs only the additional search.
	// Each escalation is preceded by a fresh-seeded simulation chunk (the
	// deterministic sim/SAT portfolio), which can short-circuit a refutation
	// the SAT search is struggling toward. 0 disables retries; retries never
	// fire on decided (Sat/Unsat) verdicts, so enabling the ladder only
	// spends effort where the answer was otherwise lost.
	RetryUnknown int
	// Restarts is the Luby restart base interval of the CDCL engine, in
	// conflicts. 0 means DefaultRestartBase; negative disables restarts.
	Restarts int
	// Observer, when non-nil, accumulates each query's work — simulation
	// rounds and the SAT budget actually consumed (decisions, propagations,
	// conflicts, learned clauses, restarts, assumption solves) — into the
	// recorder (see internal/obs). Nil costs nothing.
	Observer *obs.Recorder
	// Context, when non-nil, is polled between queries by the multi-query
	// drivers (CheckNetlists, reduce.VerifyCones) and between the attempts
	// of the retry ladder: once it is cancelled, the remaining
	// work resolves to Unknown with Stage "cancelled" instead of running, so
	// a deadline yields a strict prefix of decided results. A single
	// in-flight SAT search is not interrupted.
	Context context.Context
}

// cancelled reports whether the options' context has been cancelled.
func (o Options) cancelled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

// Cancelled is the exported form of the poll, for drivers outside the
// package (reduce.VerifyCones) that loop over per-unit queries.
func (o Options) Cancelled() bool { return o.cancelled() }

// CancelledResult is the verdict recorded for a query skipped after
// cancellation.
func CancelledResult() Result { return Result{Verdict: Unknown, Stage: "cancelled"} }

func (o Options) simRounds() int {
	switch {
	case o.SimRounds < 0:
		return 0
	case o.SimRounds == 0:
		return DefaultSimRounds
	}
	return o.SimRounds
}

func (o Options) satEnabled() bool { return o.MaxConflicts >= 0 }

func (o Options) maxConflicts() int {
	if o.MaxConflicts == 0 {
		return DefaultMaxConflicts
	}
	return o.MaxConflicts
}

func (o Options) restartBase() int {
	switch {
	case o.Restarts < 0:
		return 0
	case o.Restarts == 0:
		return DefaultRestartBase
	}
	return o.Restarts
}

// Stats reports the work each stage performed. Decisions, Propagations, and
// Conflicts accumulate across retry-ladder attempts; Retries counts the
// escalations taken (0 on a first-attempt decision). Vars and Clauses are the
// size of the query's CNF, which encodes its cone alone; both are 0 when the
// SAT stage did not run.
type Stats struct {
	SimRounds    int `json:"sim_rounds"`
	Vars         int `json:"vars"`
	Clauses      int `json:"clauses"`
	Decisions    int `json:"decisions"`
	Propagations int `json:"propagations"`
	Conflicts    int `json:"conflicts"`
	Retries      int `json:"retries"`
	// Encodings counts Tseitin encoding passes that built CNF for this
	// query: 1 exactly when the query reached the SAT stage, and 0
	// otherwise. The encoding is budget-independent, so retry-ladder
	// escalations never re-encode.
	Encodings int `json:"encodings"`
	// LearnedClauses counts clauses the CDCL engine learned from conflicts
	// during this query.
	LearnedClauses int `json:"learned_clauses"`
	// Restarts counts CDCL Luby restarts taken during this query.
	Restarts int `json:"restarts"`
	// AssumptionSolves counts assumption solves issued to the CDCL engine
	// for this query (one per retry-ladder attempt).
	AssumptionSolves int `json:"assumption_solves"`
	// ModelsRejected counts SAT models that failed replay against the
	// AIG. Every rejection is a solver bug surfaced as an explicit
	// Unknown instead of a bogus counterexample — on a healthy build this
	// is always 0, and the sat_models_rejected obs counter makes a non-zero
	// value visible in /metrics and -statsjson.
	ModelsRejected int `json:"models_rejected"`
}

// reportSolve accumulates one query's stats into the observer.
func reportSolve(rec *obs.Recorder, st Stats) {
	if rec == nil {
		return
	}
	rec.Add(obs.CtrEqChecks, 1)
	rec.Add(obs.CtrSimRounds, int64(st.SimRounds))
	rec.Add(obs.CtrSATDecisions, int64(st.Decisions))
	rec.Add(obs.CtrSATPropagations, int64(st.Propagations))
	rec.Add(obs.CtrSATConflicts, int64(st.Conflicts))
	rec.Add(obs.CtrSATRetries, int64(st.Retries))
	rec.Add(obs.CtrSATLearned, int64(st.LearnedClauses))
	rec.Add(obs.CtrSATRestarts, int64(st.Restarts))
	rec.Add(obs.CtrSATAssumpSolves, int64(st.AssumptionSolves))
	rec.Add(obs.CtrSATModelsRejected, int64(st.ModelsRejected))
}

// Result is the outcome of one literal-pair (or one output-pair) check.
type Result struct {
	Verdict Verdict
	// Stage names the pipeline stage that decided: "strash", "sim" or "sat".
	// For Unknown it names the stage whose budget ran out ("cancelled" for
	// queries skipped after Options.Context fired).
	Stage string
	// Cex, set when NotEquivalent, assigns the miter's support inputs (by
	// AIG input name) so the two functions differ.
	Cex   map[string]bool
	Stats Stats
}

// SolveStatus is the outcome of a satisfiability query.
type SolveStatus uint8

const (
	// Sat: a model was found.
	Sat SolveStatus = iota
	// Unsat: the literal is proved constant-false.
	Unsat
	// SolveUnknown: budget exhausted.
	SolveUnknown
)

func (s SolveStatus) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case SolveUnknown:
		return "unknown"
	}
	return fmt.Sprintf("SolveStatus(%d)", uint8(s))
}

// SolveResult is the outcome of Solve.
type SolveResult struct {
	Status SolveStatus
	// Model, set when Sat, assigns the query's support inputs by name.
	Model map[string]bool
	Stage string
	Stats Stats
}

// Patterns is the deterministic input-pattern generator of the simulation
// stage, also used by the semantic lint pre-pass: splitmix64 words from a
// seed, one round of 64 lanes at a time, with the first round's lanes 0 and
// 63 pinned to the all-zero and all-one assignments — cheap catches for
// constant-ish cones and deterministic counterexamples on trivial miters.
type Patterns struct {
	s      uint64
	rounds int
}

// NewPatterns returns the generator seeded with seed.
func NewPatterns(seed uint64) Patterns { return Patterns{s: seed} }

// Next fills words, one per AIG input, with the next round's patterns.
func (p *Patterns) Next(words []uint64) {
	for i := range words {
		p.s += 0x9e3779b97f4a7c15
		z := p.s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		words[i] = z ^ (z >> 31)
		if p.rounds == 0 {
			words[i] = words[i]&^uint64(1) | 1<<63
		}
	}
	p.rounds++
}

// Solver runs the staged pipeline over one shared AIG. Each query that
// reaches the SAT stage empties the solver's CDCL engine and encoder, keeping
// their storage, and encodes the query's cone from variable 0, so it returns
// exactly what it would on NewSolver(g, opt): reusing a Solver saves
// allocations and changes no answer. The AIG may keep growing between
// queries (CheckLits builds miters in place).
//
// A Solver is not goroutine-safe: give each worker its own (the shared AIG
// must then not be mutated concurrently either). CheckNetlists, the lint run
// and reduce.VerifyCones each build their own and drop it on return.
type Solver struct {
	g   *aig.AIG
	opt Options

	sat *cdcl    // created on the first SAT-stage query, reset before each
	enc *encoder // Tseitin encoder of the current query's cone into sat

	words, vals []uint64 // simulation scratch
}

// NewSolver returns a solver over g. The options are fixed for the solver's
// lifetime; its storage is reused by every query, its search by none.
func NewSolver(g *aig.AIG, opt Options) *Solver {
	return &Solver{g: g, opt: opt}
}

// Solve decides satisfiability of literal l: it looks for an input
// assignment making l true. Each query's stage work reports into
// Options.Observer.
func (s *Solver) Solve(l aig.Lit) SolveResult {
	var sr SolveResult
	switch l {
	// Stage 1: structural constants.
	case aig.False:
		sr = SolveResult{Status: Unsat, Stage: "strash"}
	case aig.True:
		sr = SolveResult{Status: Sat, Model: map[string]bool{}, Stage: "strash"}
	default:
		// Stage 2: 64-bit-parallel random simulation, as a batch of one.
		q := []simQuery{{goal: l}}
		s.simulate(q, defaultSeed, s.opt.simRounds())
		sr = s.finish(q[0])
	}
	reportSolve(s.opt.Observer, sr.Stats)
	return sr
}

// finish decides a query the simulation stage has seen: a hit refutes it
// at stage "sim"; otherwise the SAT stage runs, through the escalating-retry
// ladder (see Options).
func (s *Solver) finish(q simQuery) SolveResult {
	st := Stats{SimRounds: q.rounds}
	if q.model != nil {
		return SolveResult{Status: Sat, Model: q.model, Stage: "sim", Stats: st}
	}
	if !s.opt.satEnabled() {
		return SolveResult{Status: SolveUnknown, Stage: "sim", Stats: st}
	}
	return s.solveCDCL(q.goal, st)
}

// simQuery is one query of a simulation batch.
type simQuery struct {
	goal   aig.Lit // the literal a lane must make true
	rounds int     // rounds the query took part in
	// model assigns the goal's support from the query's first hit (lowest
	// round, then lowest lane); nil without a hit.
	model map[string]bool
}

// simulate runs up to rounds of 64-lane random simulation for a batch of
// queries, looking for a lane where a query's goal is true. Every query sees
// the same patterns, so a batch gives each one exactly the rounds, hit and
// model it would get alone; a query drops out at its first hit, and the
// batch stops once every query has one.
func (s *Solver) simulate(batch []simQuery, seed uint64, rounds int) {
	open := len(batch)
	if open == 0 || rounds <= 0 {
		return
	}
	pat := NewPatterns(seed)
	n := s.g.NumInputs()
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	}
	words := s.words[:n]
	for r := 0; r < rounds && open > 0; r++ {
		pat.Next(words)
		s.vals = s.g.Sim64(words, s.vals)
		for i := range batch {
			q := &batch[i]
			if q.model != nil {
				continue
			}
			q.rounds++
			if w := aig.Word(s.vals, q.goal); w != 0 {
				q.model = modelFromWords(s.g, q.goal, words, uint(bits.TrailingZeros64(w)))
				open--
			}
		}
	}
}

// solveCDCL runs the SAT ladder for goal on an emptied engine: the CDCL
// engine and the encoder are reset, keeping their storage, the goal's cone
// is encoded from variable 0, and the goal is the solve's one assumption.
// A retry is another assumption solve with a doubled budget on the same
// clause database, so the ladder stays warm within the query.
func (s *Solver) solveCDCL(goal aig.Lit, st Stats) SolveResult {
	if s.sat == nil {
		s.sat = newCDCL(s.opt.restartBase())
		s.enc = &encoder{g: s.g, s: s.sat}
	}
	s.sat.reset()
	s.enc.encode(goal)
	st.Encodings = 1
	assumps := []intLit{s.enc.lit(goal)}
	budget := s.opt.maxConflicts()
	for attempt := 0; ; attempt++ {
		before := s.sat.stats
		st.AssumptionSolves++
		status := s.sat.solveUnder(assumps, budget)
		st.Decisions += s.sat.stats.decisions - before.decisions
		st.Propagations += s.sat.stats.propagations - before.propagations
		st.Conflicts += s.sat.stats.conflicts - before.conflicts
		st.LearnedClauses += s.sat.stats.learned - before.learned
		st.Restarts += s.sat.stats.restarts - before.restarts
		st.Vars = s.sat.nVars
		st.Clauses = s.sat.numClauses()
		switch status {
		case statusUnsat:
			return SolveResult{Status: Unsat, Stage: "sat", Stats: st}
		case statusUnknown:
			next, ok := s.nextBudget(budget, attempt)
			if !ok {
				return SolveResult{Status: SolveUnknown, Stage: "sat", Stats: st}
			}
			if s.opt.cancelled() {
				return SolveResult{Status: SolveUnknown, Stage: "cancelled", Stats: st}
			}
			st.Retries++
			budget = next
			if res, hit := s.portfolioSim(goal, attempt, &st); hit {
				return res
			}
			continue
		}
		model, ok := s.modelFromCDCL(goal)
		if !ok {
			// The solver's model failed replay: a solver bug.
			// Degrade to Unknown rather than report a bogus counterexample,
			// and surface the event in Stats and the obs schema.
			st.ModelsRejected++
			return SolveResult{Status: SolveUnknown, Stage: "sat", Stats: st}
		}
		return SolveResult{Status: Sat, Model: model, Stage: "sat", Stats: st}
	}
}

// nextBudget computes the escalated conflict budget for the retry ladder, or
// reports that the ladder is exhausted.
func (s *Solver) nextBudget(budget, attempt int) (int, bool) {
	next := min(budget*2, retryConflictCap)
	if attempt >= s.opt.RetryUnknown || next <= budget {
		return 0, false
	}
	return next, true
}

// portfolioSim is the simulation half of the deterministic sim/SAT
// portfolio: before each SAT escalation, a fresh-seeded chunk of random
// simulation gets a chance to refute the query outright. The schedule is
// fixed by attempt counts, never wall time, so results are byte-identical
// across machines and worker counts.
func (s *Solver) portfolioSim(goal aig.Lit, attempt int, st *Stats) (SolveResult, bool) {
	chunkSeed := defaultSeed + uint64(attempt+1)*0xa0761d6478bd642f
	q := []simQuery{{goal: goal}}
	s.simulate(q, chunkSeed, s.opt.simRounds())
	st.SimRounds += q[0].rounds
	if q[0].model == nil {
		return SolveResult{}, false
	}
	return SolveResult{Status: Sat, Model: q[0].model, Stage: "sim", Stats: *st}, true
}

// modelFromWords extracts the assignment of lane from the simulated words,
// restricted to the goal's support.
func modelFromWords(g *aig.AIG, goal aig.Lit, words []uint64, lane uint) map[string]bool {
	model := make(map[string]bool)
	for _, i := range g.Support(goal) {
		model[g.InputName(i)] = words[i]>>lane&1 == 1
	}
	return model
}

// modelFromCDCL reads the goal's support out of the CDCL model and verifies
// the goal against the AIG by evaluating its cone under the model. The
// support lies in the encoded cone, so every input it names has a variable.
func (s *Solver) modelFromCDCL(goal aig.Lit) (map[string]bool, bool) {
	model := make(map[string]bool)
	assign := make([]bool, s.g.NumInputs())
	for _, i := range s.g.Support(goal) {
		b := s.sat.modelValue(litVar(s.enc.lit(s.g.InputLit(i))))
		model[s.g.InputName(i)] = b
		assign[i] = b
	}
	if !s.g.EvalBool(assign, goal) {
		return nil, false
	}
	return model, true
}

// CheckLits decides whether literals a and b compute the same function of
// the inputs. It may grow the AIG (the miter XOR is built in place, reusing
// existing structure via hashing).
func (s *Solver) CheckLits(a, b aig.Lit) Result {
	if a == b {
		return Result{Verdict: Equivalent, Stage: "strash"}
	}
	m := s.g.Xor(a, b)
	if m == aig.False {
		// The XOR folded away: equal by construction.
		return Result{Verdict: Equivalent, Stage: "strash"}
	}
	return s.verdict(a, b, s.Solve(m))
}

// verdict maps the solve result of the miter of a and b to an equivalence
// verdict.
func (s *Solver) verdict(a, b aig.Lit, sr SolveResult) Result {
	switch sr.Status {
	case Unsat:
		return Result{Verdict: Equivalent, Stage: sr.Stage, Stats: sr.Stats}
	case Sat:
		// The model covers the miter's support, which folding can shrink
		// below the sides' own supports (extreme case: a vs !a folds to a
		// constant-true miter with empty support). Complete the
		// counterexample over both sides with the same default the model
		// semantics uses for absent inputs: false.
		cex := sr.Model
		for _, side := range [2]aig.Lit{a, b} {
			for _, i := range s.g.Support(side) {
				if _, ok := cex[s.g.InputName(i)]; !ok {
					cex[s.g.InputName(i)] = false
				}
			}
		}
		return Result{Verdict: NotEquivalent, Stage: sr.Stage, Cex: cex, Stats: sr.Stats}
	}
	return Result{Verdict: Unknown, Stage: sr.Stage, Stats: sr.Stats}
}

// OutputCheck is the per-observable outcome of a netlist-level check.
type OutputCheck struct {
	// Name is the shared observable: a primary-output net name, or
	// aig.FFPrefix + gate name for a next-state function.
	Name string
	Result
}

// NetlistResult is the outcome of CheckNetlists.
type NetlistResult struct {
	// Outputs holds one check per shared observable, in A's declaration
	// order.
	Outputs []OutputCheck
	// OnlyInA / OnlyInB list observables present on one side only; they are
	// reported, not checked.
	OnlyInA, OnlyInB []string
}

// Verdict aggregates: NotEquivalent dominates, then Unknown, then Equivalent.
func (r *NetlistResult) Verdict() Verdict {
	v := Equivalent
	for _, oc := range r.Outputs {
		switch oc.Result.Verdict {
		case NotEquivalent:
			return NotEquivalent
		case Unknown:
			v = Unknown
		}
	}
	return v
}

// CheckNetlists compares two netlists observable-by-observable: primary
// outputs are matched by net name and next-state functions by flip-flop gate
// name, over a shared input space keyed by net name (primary inputs and
// flip-flop outputs). pin forces named nets to constants on both sides before
// lowering — the cofactor under a control assignment. The tie-off inputs
// created by reduce.Materialize ("$const0", "$const1") are always pinned to
// their values. All outputs share one simulation stage; the outputs that
// survive it then run, in order, on the check's one solver, each on an
// emptied SAT engine, so each gets a new solver's answer without a new
// solver's allocations.
func CheckNetlists(na, nb *netlist.Netlist, pin map[string]logic.Value, opt Options) (*NetlistResult, error) {
	eff := make(map[string]logic.Value, len(pin)+2)
	eff["$const0"] = logic.Zero
	eff["$const1"] = logic.One
	for k, v := range pin {
		eff[k] = v
	}
	g := aig.New()
	fa, err := aig.AddFrame(g, na, eff)
	if err != nil {
		return nil, fmt.Errorf("eqcheck: lowering %s: %w", na.Name, err)
	}
	fb, err := aig.AddFrame(g, nb, eff)
	if err != nil {
		return nil, fmt.Errorf("eqcheck: lowering %s: %w", nb.Name, err)
	}
	solver := NewSolver(g, opt)
	res := &NetlistResult{}
	// Build every miter first, in output order: node numbers fix CNF
	// variable numbers, so the AIG grows exactly as it would if each
	// output were checked before the next miter was built.
	type check struct {
		name    string
		a, b, m aig.Lit
		sim     int // index in batch; -1 for a miter strash already decides
	}
	var checks []check
	var batch []simQuery
	for _, name := range fa.OutputNames {
		lb, ok := fb.Outputs[name]
		if !ok {
			res.OnlyInA = append(res.OnlyInA, name)
			continue
		}
		c := check{name: name, a: fa.Outputs[name], b: lb, m: aig.False, sim: -1}
		if c.a != c.b {
			c.m = g.Xor(c.a, c.b)
		}
		if c.m != aig.False && c.m != aig.True {
			c.sim = len(batch)
			batch = append(batch, simQuery{goal: c.m})
		}
		checks = append(checks, c)
	}
	// One simulation stage for every miter, then the survivors go to the
	// SAT engine in output order.
	solver.simulate(batch, defaultSeed, opt.simRounds())
	for _, c := range checks {
		// Deadline-bounded runs keep the output list complete and in order:
		// outputs past the cancellation point are Unknown/"cancelled", so a
		// partial result is a strict prefix of the full one.
		if opt.cancelled() {
			res.Outputs = append(res.Outputs, OutputCheck{Name: c.name, Result: CancelledResult()})
			continue
		}
		var r Result
		switch {
		case c.m == aig.False:
			r = Result{Verdict: Equivalent, Stage: "strash"}
		case c.sim < 0:
			// The constant-true miter of a against !a: the strash stage
			// refutes it with an empty model, never the simulation.
			r = solver.verdict(c.a, c.b, solver.Solve(c.m))
		default:
			sr := solver.finish(batch[c.sim])
			reportSolve(opt.Observer, sr.Stats)
			r = solver.verdict(c.a, c.b, sr)
		}
		res.Outputs = append(res.Outputs, OutputCheck{Name: c.name, Result: r})
	}
	for _, name := range fb.OutputNames {
		if _, ok := fa.Outputs[name]; !ok {
			res.OnlyInB = append(res.OnlyInB, name)
		}
	}
	if len(res.Outputs) == 0 {
		return nil, errors.New("eqcheck: netlists share no observables (no matching output names or flip-flop names)")
	}
	return res, nil
}

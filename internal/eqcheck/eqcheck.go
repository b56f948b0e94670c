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
//  3. Tseitin CNF + an incremental CDCL SAT solver (clause learning, VSIDS
//     branching, Luby restarts; see cdcl.go) — UNSAT of the miter proves
//     equivalence, SAT yields a counterexample, and an inclusive conflict
//     budget turns divergence into an explicit Unknown. A budget-exhausted
//     query escalates through a retry ladder interleaved with fresh-seeded
//     simulation chunks (a deterministic sim/SAT portfolio), and each retry
//     is a warm re-search on the same solver with the budget doubled.
//
// The Solver type keeps the SAT engine warm across queries: cones are
// Tseitin-encoded once, queries are asserted as assumptions instead of unit
// clauses (Solver.SolveUnder), and learned clauses plus branching activities
// carry over — which is what makes re-proving many near-identical cones
// (reduce.VerifyCones) and re-proving one cone under many control
// assignments cheap. The package-level functions run the same pipeline on a
// transient solver.
//
// Per-query work is bounded by the query's cone, not by the shared AIG: the
// encoder walks only the unencoded part of a cone, and counterexample
// supports and the replay of every SAT model (which evaluates the goal's
// cone under the model) touch the cone alone.
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
	defaultSeed         = 0x51ab_c0de_2015_dac1
	// DefaultRetryConflictCap bounds the escalating-retry ladder: 8× the
	// default conflict budget, reached after three doublings.
	DefaultRetryConflictCap = 8 * DefaultMaxConflicts
	// DefaultRestartBase is the CDCL Luby restart unit: the k-th restart
	// fires after luby(k)·base conflicts.
	DefaultRestartBase = 128
)

// Options tunes the staged pipeline. The zero value uses the defaults;
// negative SimRounds or MaxConflicts disable that stage entirely.
type Options struct {
	// SimRounds is the number of 64-pattern random-simulation rounds run
	// before falling back to SAT. 0 means DefaultSimRounds; negative skips
	// simulation.
	SimRounds int
	// Seed seeds the deterministic pattern generator. 0 selects a fixed
	// default, so results are reproducible unless a seed is given.
	Seed uint64
	// MaxConflicts bounds the SAT search in solver conflicts; exhausting it
	// yields Unknown. The bound is inclusive: at most MaxConflicts conflicts
	// are resolved, and the conflict that would exceed the budget aborts the
	// search unresolved (a budget of 0 at the engine level performs no
	// search at all). 0 here means DefaultMaxConflicts; negative skips the
	// SAT stage.
	MaxConflicts int
	// RetryUnknown is the depth of the escalating-retry ladder: a SAT stage
	// that exhausts its conflict budget (Unknown) is rerun up to RetryUnknown
	// more times with the budget doubled each attempt, capped at
	// RetryConflictCap. A retry is a warm re-search — the clause database,
	// learned clauses, and branching activities carry over, so escalation
	// costs only the additional search.
	// Each escalation is preceded by a fresh-seeded simulation chunk (the
	// deterministic sim/SAT portfolio), which can short-circuit a refutation
	// the SAT search is struggling toward. 0 disables retries; retries never
	// fire on decided (Sat/Unsat) verdicts, so enabling the ladder only
	// spends effort where the answer was otherwise lost.
	RetryUnknown int
	// RetryConflictCap caps the escalated conflict budget (0 means
	// DefaultRetryConflictCap). Once the cap is reached, a remaining Unknown
	// is final.
	RetryConflictCap int
	// Restarts is the Luby restart base interval of the CDCL engine, in
	// conflicts. 0 means DefaultRestartBase; negative disables restarts.
	Restarts int
	// Observer, when non-nil, accumulates each query's work — simulation
	// rounds and the SAT budget actually consumed (decisions, propagations,
	// conflicts, learned clauses, restarts, assumption solves) — into the
	// recorder (see internal/obs). Nil costs nothing.
	Observer *obs.Recorder
	// Context, when non-nil, is polled between queries by the multi-query
	// drivers (CheckNetlists, reduce.VerifyCones) and between assumption
	// solves inside the retry ladder: once it is cancelled, the remaining
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

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return defaultSeed
	}
	return o.Seed
}

func (o Options) satEnabled() bool { return o.MaxConflicts >= 0 }

func (o Options) maxConflicts() int {
	if o.MaxConflicts == 0 {
		return DefaultMaxConflicts
	}
	return o.MaxConflicts
}

func (o Options) retryCap() int {
	if o.RetryConflictCap <= 0 {
		return DefaultRetryConflictCap
	}
	return o.RetryConflictCap
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
// escalations taken (0 on a first-attempt decision).
type Stats struct {
	SimRounds    int `json:"sim_rounds"`
	Vars         int `json:"vars"`
	Clauses      int `json:"clauses"`
	Decisions    int `json:"decisions"`
	Propagations int `json:"propagations"`
	Conflicts    int `json:"conflicts"`
	Retries      int `json:"retries"`
	// Encodings counts Tseitin encoding passes that built CNF for this
	// query. It is at most 1 per query: the encoding is budget-independent,
	// so retry-ladder escalations never re-encode, and a warm Solver that
	// has already encoded the cone reports 0.
	Encodings int `json:"encodings"`
	// LearnedClauses counts clauses the CDCL engine learned from conflicts
	// during this query.
	LearnedClauses int `json:"learned_clauses"`
	// Restarts counts CDCL Luby restarts taken during this query.
	Restarts int `json:"restarts"`
	// AssumptionSolves counts incremental assumption solves issued to the
	// warm CDCL engine for this query (one per retry-ladder attempt).
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

// splitmix64 is the deterministic pattern generator for the simulation stage.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Solver runs the staged pipeline over one shared AIG, keeping the SAT
// engine warm between queries: cones are Tseitin-encoded exactly once, each
// query is asserted as an assumption instead of a unit clause, and learned
// clauses plus branching activities persist — so proving N related cones, or
// one cone under N control assignments, costs one encoding and N cheap
// assumption solves. The AIG may keep growing between queries (CheckLits
// builds miters in place); the encoder picks up new structure on demand.
//
// A Solver is not goroutine-safe: give each worker its own (the shared AIG
// must then not be mutated concurrently either). The package-level Solve /
// CheckLits / CheckNetlists wrappers construct transient Solvers.
type Solver struct {
	g   *aig.AIG
	opt Options

	sat *cdcl    // lazily created on the first SAT-stage query
	enc *encoder // incremental Tseitin encoder into sat

	words, vals []uint64 // simulation scratch
}

// NewSolver returns a warm solver over g. The options are fixed for the
// solver's lifetime.
func NewSolver(g *aig.AIG, opt Options) *Solver {
	return &Solver{g: g, opt: opt}
}

// Solve decides satisfiability of literal l: it looks for an input
// assignment making l true.
func (s *Solver) Solve(l aig.Lit) SolveResult { return s.SolveUnder(l, nil) }

// SolveUnder decides satisfiability of l with every assumption literal held
// true. The assumptions are passed to the CDCL solver as solver assumptions —
// nothing is re-encoded between calls that share cones, so sweeping one cone
// under many control assignments is the cheap path this solver is built for.
// Unsat means no model exists under these assumptions. Each query's stage
// work reports into Options.Observer.
func (s *Solver) SolveUnder(l aig.Lit, assumps []aig.Lit) SolveResult {
	sr := s.solveUnder(l, assumps)
	reportSolve(s.opt.Observer, sr.Stats)
	return sr
}

func (s *Solver) solveUnder(l aig.Lit, assumps []aig.Lit) SolveResult {
	// Stage 1: structural constants. A false goal refutes the query
	// outright; true goals drop out.
	goals := make([]aig.Lit, 0, 1+len(assumps))
	for i := -1; i < len(assumps); i++ {
		gl := l
		if i >= 0 {
			gl = assumps[i]
		}
		switch gl {
		case aig.False:
			return SolveResult{Status: Unsat, Stage: "strash"}
		case aig.True:
			continue
		}
		goals = append(goals, gl)
	}
	if len(goals) == 0 {
		return SolveResult{Status: Sat, Model: map[string]bool{}, Stage: "strash"}
	}

	// Stage 2: 64-bit-parallel random simulation, as a batch of one.
	q := []simQuery{{goals: goals}}
	s.simulate(q, s.opt.seed(), s.opt.simRounds())
	return s.finish(q[0])
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
	return s.solveCDCL(q.goals, st)
}

// simQuery is one query of a simulation batch.
type simQuery struct {
	goals  []aig.Lit // literals that must all be true in one lane
	rounds int       // rounds the query took part in
	// model assigns the goals' support from the query's first hit (lowest
	// round, then lowest lane); nil without a hit.
	model map[string]bool
}

// simulate runs up to rounds of 64-lane random simulation for a batch of
// queries, looking for a lane where every goal literal of a query is true.
// Every query sees the same patterns, so a batch gives each one exactly the
// rounds, hit and model it would get alone; a query drops out at its first
// hit, and the batch stops once every query has one.
func (s *Solver) simulate(batch []simQuery, seed uint64, rounds int) {
	open := len(batch)
	if open == 0 || rounds <= 0 {
		return
	}
	rng := splitmix64{s: seed}
	n := s.g.NumInputs()
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	}
	words := s.words[:n]
	for r := 0; r < rounds && open > 0; r++ {
		for i := range words {
			words[i] = rng.next()
		}
		if r == 0 && len(words) > 0 {
			// Make the first round's lanes 0 and 63 the all-zero and
			// all-one assignments: cheap catches for constant-ish cones
			// and deterministic counterexamples on trivial miters.
			for i := range words {
				words[i] = words[i]&^uint64(1) | 1<<63
			}
		}
		s.vals = s.g.Sim64(words, s.vals)
		for i := range batch {
			q := &batch[i]
			if q.model != nil {
				continue
			}
			q.rounds++
			w := ^uint64(0)
			for _, gl := range q.goals {
				w &= aig.Word(s.vals, gl)
			}
			if w != 0 {
				q.model = modelFromWords(s.g, q.goals, words, uint(bits.TrailingZeros64(w)))
				open--
			}
		}
	}
}

// solveCDCL runs the SAT ladder on the warm incremental engine: the goal
// cones are encoded (once, ever), the goals become solver assumptions, and a
// retry is another assumption solve with a doubled budget on the same clause
// database.
func (s *Solver) solveCDCL(goals []aig.Lit, st Stats) SolveResult {
	if s.sat == nil {
		s.sat = newCDCL(s.opt.restartBase())
		s.enc = newEncoder(s.g, s.sat)
	}
	if s.enc.ensure(goals...) {
		st.Encodings++
	}
	assumps := make([]intLit, len(goals))
	for i, gl := range goals {
		assumps[i] = s.enc.lit(gl)
	}
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
			if res, hit := s.portfolioSim(goals, attempt, &st); hit {
				return res
			}
			continue
		}
		model, ok := s.modelFromCDCL(goals)
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
	next := budget * 2
	if hi := s.opt.retryCap(); next > hi {
		next = hi
	}
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
func (s *Solver) portfolioSim(goals []aig.Lit, attempt int, st *Stats) (SolveResult, bool) {
	chunkSeed := s.opt.seed() + uint64(attempt+1)*0xa0761d6478bd642f
	q := []simQuery{{goals: goals}}
	s.simulate(q, chunkSeed, s.opt.simRounds())
	st.SimRounds += q[0].rounds
	if q[0].model == nil {
		return SolveResult{}, false
	}
	return SolveResult{Status: Sat, Model: q[0].model, Stage: "sim", Stats: *st}, true
}

// modelFromWords extracts the assignment of lane from the simulated words,
// restricted to the goals' support.
func modelFromWords(g *aig.AIG, goals []aig.Lit, words []uint64, lane uint) map[string]bool {
	model := make(map[string]bool)
	for _, gl := range goals {
		for _, i := range g.Support(gl) {
			model[g.InputName(i)] = words[i]>>lane&1 == 1
		}
	}
	return model
}

// modelFromCDCL reads the input assignment out of the CDCL model and
// verifies every goal against the AIG by evaluating the goal's cone.
func (s *Solver) modelFromCDCL(goals []aig.Lit) (map[string]bool, bool) {
	model := make(map[string]bool)
	assign := make([]bool, s.g.NumInputs())
	for _, gl := range goals {
		for _, i := range s.g.Support(gl) {
			n := s.g.InputLit(i).Node()
			v, ok := s.enc.varOf[n]
			if !ok {
				continue // outside the encoded cone: value is irrelevant
			}
			b := s.sat.modelValue(v)
			model[s.g.InputName(i)] = b
			assign[i] = b
		}
	}
	for _, gl := range goals {
		if !s.g.EvalBool(assign, gl) {
			return nil, false
		}
	}
	return model, true
}

// CheckLits decides whether literals a and b compute the same function of
// the inputs. It may grow the AIG (the miter XOR is built in place, reusing
// existing structure via hashing).
func (s *Solver) CheckLits(a, b aig.Lit) Result { return s.CheckLitsUnder(a, b, nil) }

// CheckLitsUnder decides whether a and b compute the same function on every
// input assignment satisfying the assumption literals — equivalence under a
// control assignment, with the assumptions passed to the warm solver instead
// of baked into a new encoding.
func (s *Solver) CheckLitsUnder(a, b aig.Lit, assumps []aig.Lit) Result {
	if a == b {
		return Result{Verdict: Equivalent, Stage: "strash"}
	}
	m := s.g.Xor(a, b)
	if m == aig.False {
		// The XOR folded away: equal by construction.
		return Result{Verdict: Equivalent, Stage: "strash"}
	}
	return s.verdict(a, b, s.SolveUnder(m, assumps))
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

// Solve decides satisfiability of literal l in g on a transient solver; use
// a Solver directly to keep the engine warm across queries.
func Solve(g *aig.AIG, l aig.Lit, opt Options) SolveResult {
	return NewSolver(g, opt).Solve(l)
}

// CheckLits decides whether literals a and b of the shared AIG g compute the
// same function of the inputs, on a transient solver. It may grow g (the
// miter XOR is built in place, reusing existing structure via hashing).
func CheckLits(g *aig.AIG, a, b aig.Lit, opt Options) Result {
	return NewSolver(g, opt).CheckLits(a, b)
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
// their values. All outputs share one simulation stage and one warm solver,
// so structure common to several output cones is simulated, encoded and
// learned from once.
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
			batch = append(batch, simQuery{goals: []aig.Lit{c.m}})
		}
		checks = append(checks, c)
	}
	// One simulation stage for every miter, then the survivors go to the
	// warm SAT engine in output order.
	solver.simulate(batch, opt.seed(), opt.simRounds())
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
			r = solver.verdict(c.a, c.b, solver.SolveUnder(c.m, nil))
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

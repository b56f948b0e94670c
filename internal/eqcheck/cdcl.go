package eqcheck

// cdcl.go implements a conflict-driven clause-learning SAT solver, the
// engine behind the staged equivalence pipeline: two-watched-literal unit
// propagation plus the four classic CDCL ingredients:
//
//   - first-UIP conflict analysis with non-chronological backjumping: every
//     conflict is resolved back to the first unique implication point and the
//     learned clause asserts its negation at the earliest level where it
//     becomes unit, instead of flipping the most recent decision;
//   - VSIDS-style branching: variables touched by conflict analysis gain
//     activity, activities decay geometrically, and decisions pick the most
//     active unassigned variable (index-ordered on ties, so the search is
//     deterministic), with phase saving across backjumps and restarts;
//   - Luby restarts: the search restarts after luby(k)·base conflicts,
//     keeping the clause database and activities, which un-sticks unlucky
//     early decision prefixes without losing learned work;
//   - learned-clause reduction: when the learnt database outgrows its cap
//     the lower-activity half is deleted (binary and locked clauses are
//     kept), bounding memory during a long search.
//
// The solver is incremental: clauses can be added between solves (at
// decision level 0), and solveUnder proves a query under a vector of
// assumption literals without touching the clause database — assumptions are
// pushed as pseudo-decisions below all real decisions and re-pushed after
// every restart or backjump past them, exactly the MiniSat discipline. A
// retry with a raised conflict budget is therefore a warm re-search: the
// clause database, activities, and saved phases all carry over.
//
// reset empties the solver while keeping its storage: clause literals live
// in one slab that reset rewinds, and every per-variable array and watch
// list is truncated, not freed. A reset solver is indistinguishable from a
// new one, so it repeats a new one's search. The Solver resets its engine
// before every query that reaches the SAT stage; only a query's own retries
// share an engine.

import "sort"

// intLit is a CNF literal: variable index shifted left with the negation bit
// in the LSB (the same convention as aig.Lit, over CNF variables).
type intLit = int32

func posLit(v int) intLit    { return intLit(v << 1) }
func negLit(v int) intLit    { return intLit(v<<1 | 1) }
func litVar(l intLit) int    { return int(l >> 1) }
func litNot(l intLit) intLit { return l ^ 1 }

type clause []intLit

type solveStatus uint8

const (
	statusSat solveStatus = iota
	statusUnsat
	statusUnknown
)

const (
	varActDecay    = 0.95  // per-conflict variable-activity decay (varInc /= decay)
	claActDecay    = 0.999 // per-conflict clause-activity decay
	varActRescale  = 1e100 // rescale threshold for variable activities
	claActRescale  = 1e20  // rescale threshold for clause activities
	initMaxLearnts = 1000  // initial learnt-database cap (grows by half per reduction)
)

// cdclStats are the monotone engine counters; callers snapshot before and
// after a solve and report the delta.
type cdclStats struct {
	decisions    int
	propagations int
	conflicts    int
	learned      int
	restarts     int
}

// cdcl is one incremental CDCL solver instance.
type cdcl struct {
	nVars int

	// Clause storage. Problem and learnt clauses share one arena so reason
	// references are plain indices; deleted learnt clauses become nil holes
	// (indices must stay stable for the reason links of locked clauses).
	// Their literals are carved from lits, a slab replaced by one twice its
	// size when full; a clause keeps the slab it was carved from alive until
	// reset, and a deleted learnt clause's literals stay in it until then.
	// The Solver resets before every query, so they last one query.
	clauses  []clause
	lits     []intLit
	scratch  []intLit // clause under construction (addClause, analyze)
	learnt   []bool
	claAct   []float64
	nLearnts int // live learnt clauses
	nBinary  int // problem clauses of length >= 2
	nUnits   int // top-level problem units

	watches  [][]int32
	assign   []int8  // per variable: 0 unknown, +1 true, -1 false
	varLevel []int32 // decision level of the assignment
	reason   []int32 // implying clause index, or -1 for decisions/units
	trail    []intLit
	trailLim []int // trail length at each decision-level start
	qhead    int
	unsat    bool // proved unsat at level 0 (permanent)

	// VSIDS activity order: a binary heap of variables, most active first,
	// index-ascending on equal activity for determinism.
	varAct  []float64
	varInc  float64
	claInc  float64
	heap    []int32
	heapPos []int32
	phase   []int8 // saved polarity from the last unassignment (0 = false-first)

	seen []bool // conflict-analysis scratch

	lubyBase   int // restart unit in conflicts; <= 0 disables restarts
	maxLearnts int

	model []int8 // assignment snapshot of the last statusSat

	stats cdclStats
}

func newCDCL(lubyBase int) *cdcl {
	return &cdcl{
		varInc:     1,
		claInc:     1,
		lubyBase:   lubyBase,
		maxLearnts: initMaxLearnts,
	}
}

// reset returns the solver to newCDCL's state, keeping the storage of its
// clause slab, watch lists and per-variable arrays, in time proportional to
// the variables and clauses it held. The monotone stats keep counting.
func (s *cdcl) reset() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.watches = s.watches[:0]
	clear(s.clauses) // drop references to slabs replaced since the last reset
	s.clauses = s.clauses[:0]
	s.lits = s.lits[:0]
	s.learnt = s.learnt[:0]
	s.claAct = s.claAct[:0]
	s.nVars, s.nLearnts, s.nBinary, s.nUnits = 0, 0, 0, 0
	s.assign = s.assign[:0]
	s.varLevel = s.varLevel[:0]
	s.reason = s.reason[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.unsat = false
	s.varAct = s.varAct[:0]
	s.varInc, s.claInc = 1, 1
	s.heap = s.heap[:0]
	s.heapPos = s.heapPos[:0]
	s.phase = s.phase[:0]
	s.seen = s.seen[:0]
	s.maxLearnts = initMaxLearnts
	s.model = s.model[:0]
}

// reserve makes room in the slab for n more literals. A slab too full for
// them is replaced by one of twice its size, or of n if that is larger.
func (s *cdcl) reserve(n int) {
	if len(s.lits)+n > cap(s.lits) {
		s.lits = make([]intLit, 0, max(2*cap(s.lits), n))
	}
}

// store copies c into the slab and returns the copy.
func (s *cdcl) store(c []intLit) clause {
	s.reserve(len(c))
	off := len(s.lits)
	s.lits = append(s.lits, c...)
	return s.lits[off:len(s.lits):len(s.lits)]
}

// newVar grows the solver by one fresh variable and returns its index.
func (s *cdcl) newVar() int {
	v := s.nVars
	s.nVars++
	if n := len(s.watches) + 2; n <= cap(s.watches) {
		s.watches = s.watches[:n] // lists emptied by reset, storage kept
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.assign = append(s.assign, 0)
	s.varLevel = append(s.varLevel, 0)
	s.reason = append(s.reason, -1)
	s.varAct = append(s.varAct, 0)
	s.heapPos = append(s.heapPos, -1)
	s.phase = append(s.phase, 0)
	s.seen = append(s.seen, false)
	s.heapInsert(int32(v))
	return v
}

func (s *cdcl) value(l intLit) int8 {
	v := s.assign[litVar(l)]
	if l&1 == 1 {
		return -v
	}
	return v
}

func (s *cdcl) decisionLevel() int { return len(s.trailLim) }

// addClause installs one problem clause. It must be called at decision level
// 0 (between solves); literals already decided at level 0 simplify away.
func (s *cdcl) addClause(lits ...intLit) {
	if s.unsat {
		return
	}
	c := s.scratch[:0]
	for _, l := range lits {
		if s.assign[litVar(l)] != 0 && s.varLevel[litVar(l)] == 0 {
			if s.value(l) == 1 {
				return // satisfied at the top level
			}
			continue // falsified at the top level: drop the literal
		}
		dup, taut := false, false
		for _, e := range c {
			if e == l {
				dup = true
				break
			}
			if e == litNot(l) {
				taut = true
				break
			}
		}
		if taut {
			return
		}
		if !dup {
			c = append(c, l)
		}
	}
	s.scratch = c
	switch len(c) {
	case 0:
		s.unsat = true
		return
	case 1:
		s.nUnits++
		if !s.enqueue(c[0], -1) {
			s.unsat = true
		}
		return
	}
	c = s.store(c)
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, c)
	s.learnt = append(s.learnt, false)
	s.claAct = append(s.claAct, 0)
	s.watches[c[0]] = append(s.watches[c[0]], ci)
	s.watches[c[1]] = append(s.watches[c[1]], ci)
	s.nBinary++
}

// numClauses reports the live problem-clause count (units included), the
// figure behind Stats.Clauses.
func (s *cdcl) numClauses() int { return s.nBinary + s.nUnits }

// enqueue assigns literal l true at the current decision level with the
// given reason clause; it returns false when l is already false.
func (s *cdcl) enqueue(l intLit, from int32) bool {
	switch s.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := litVar(l)
	if l&1 == 1 {
		s.assign[v] = -1
	} else {
		s.assign[v] = 1
	}
	s.varLevel[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs two-watched-literal unit propagation to fixpoint and
// returns the conflicting clause index, or -1.
func (s *cdcl) propagate() int32 {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.stats.propagations++
		falseLit := litNot(l)
		ws := s.watches[falseLit]
		j := 0
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			c := s.clauses[ci]
			// Normalize: the false watch sits at c[1]. A clause in reason
			// position keeps its implied literal at c[0]: that literal is
			// true while the clause is a reason, so this swap cannot fire
			// on it.
			if c[0] == falseLit {
				c[0], c[1] = c[1], c[0]
			}
			if s.value(c[0]) == 1 {
				ws[j] = ci
				j++
				continue
			}
			moved := false
			for k := 2; k < len(c); k++ {
				if s.value(c[k]) != -1 {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1]] = append(s.watches[c[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit (or conflicting) on c[0].
			ws[j] = ci
			j++
			if !s.enqueue(c[0], ci) {
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[falseLit] = ws[:j]
				return ci
			}
		}
		s.watches[falseLit] = ws[:j]
	}
	return -1
}

// cancelUntil backtracks to decision level lvl, saving phases and returning
// unassigned variables to the activity heap.
func (s *cdcl) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lim := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := litVar(s.trail[i])
		s.phase[v] = s.assign[v]
		s.assign[v] = 0
		s.reason[v] = -1
		s.heapInsert(int32(v))
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = lim
}

// analyze performs first-UIP conflict analysis from the conflicting clause.
// It returns the learned clause — asserting literal first, a literal of the
// backjump level second — and the backjump level itself. The clause lives in
// the solver's scratch buffer until record stores it.
func (s *cdcl) analyze(confl int32) ([]intLit, int) {
	learnt := append(s.scratch[:0], 0)
	pathC := 0
	p := intLit(-1)
	idx := len(s.trail) - 1
	cur := int32(s.decisionLevel())
	for {
		c := s.clauses[confl]
		if s.learnt[confl] {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1 // c is p's reason: c[0] is p itself
		}
		for _, q := range c[start:] {
			v := litVar(q)
			if s.seen[v] || s.varLevel[v] == 0 {
				continue
			}
			s.bumpVar(int32(v))
			s.seen[v] = true
			if s.varLevel[v] >= cur {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal of the
		// current level.
		for !s.seen[litVar(s.trail[idx])] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := litVar(p)
		s.seen[v] = false
		pathC--
		if pathC <= 0 {
			break // p is the first UIP
		}
		confl = s.reason[v]
	}
	learnt[0] = litNot(p)
	bt := 0
	if len(learnt) > 1 {
		// Second watch: the deepest remaining literal, whose level is the
		// backjump target (the learned clause becomes unit exactly there).
		mi := 1
		for i := 2; i < len(learnt); i++ {
			if s.varLevel[litVar(learnt[i])] > s.varLevel[litVar(learnt[mi])] {
				mi = i
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
		bt = int(s.varLevel[litVar(learnt[1])])
	}
	for _, q := range learnt[1:] {
		s.seen[litVar(q)] = false
	}
	s.scratch = learnt
	return learnt, bt
}

// record installs a freshly learned clause (after cancelUntil to its
// backjump level), copying it into the slab, and enqueues its asserting
// literal.
func (s *cdcl) record(c []intLit) {
	s.stats.learned++
	if len(c) == 1 {
		if !s.enqueue(c[0], -1) {
			s.unsat = true
		}
		return
	}
	c = s.store(c)
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, c)
	s.learnt = append(s.learnt, true)
	s.claAct = append(s.claAct, s.claInc)
	s.watches[c[0]] = append(s.watches[c[0]], ci)
	s.watches[c[1]] = append(s.watches[c[1]], ci)
	s.nLearnts++
	s.enqueue(c[0], ci)
}

func (s *cdcl) bumpVar(v int32) {
	s.varAct[v] += s.varInc
	if s.varAct[v] > varActRescale {
		for i := range s.varAct {
			s.varAct[i] *= 1 / varActRescale
		}
		s.varInc *= 1 / varActRescale
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(int(s.heapPos[v]))
	}
}

func (s *cdcl) bumpClause(ci int32) {
	s.claAct[ci] += s.claInc
	if s.claAct[ci] > claActRescale {
		for i := range s.claAct {
			if s.learnt[i] {
				s.claAct[i] *= 1 / claActRescale
			}
		}
		s.claInc *= 1 / claActRescale
	}
}

func (s *cdcl) decayActivities() {
	s.varInc *= 1 / varActDecay
	s.claInc *= 1 / claActDecay
}

// locked reports whether clause ci is the reason of its first literal's
// assignment (deleting it would orphan the implication graph).
func (s *cdcl) locked(ci int32) bool {
	c := s.clauses[ci]
	return s.value(c[0]) == 1 && s.reason[litVar(c[0])] == ci
}

// reduceDB deletes the lower-activity half of the deletable learnt clauses.
// Binary and locked clauses are exempt. Deletion nils the arena slot so
// reason indices stay stable; watches are detached eagerly.
func (s *cdcl) reduceDB() {
	var cand []int32
	for ci := range s.clauses {
		if s.learnt[ci] && s.clauses[ci] != nil && len(s.clauses[ci]) > 2 && !s.locked(int32(ci)) {
			cand = append(cand, int32(ci))
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if s.claAct[a] != s.claAct[b] {
			return s.claAct[a] < s.claAct[b]
		}
		return a < b
	})
	for _, ci := range cand[:len(cand)/2] {
		c := s.clauses[ci]
		s.removeWatch(c[0], ci)
		s.removeWatch(c[1], ci)
		s.clauses[ci] = nil
		s.nLearnts--
	}
}

func (s *cdcl) removeWatch(l intLit, ci int32) {
	ws := s.watches[l]
	for i, w := range ws {
		if w == ci {
			s.watches[l] = append(ws[:i], ws[i+1:]...)
			return
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int) int {
	for k := 1; ; k++ {
		if i == 1<<k-1 {
			return 1 << (k - 1)
		}
		if i < 1<<k-1 {
			return luby(i - (1<<(k-1) - 1))
		}
	}
}

// pickBranchVar pops the most active unassigned variable, or -1 when every
// variable is assigned (a model).
func (s *cdcl) pickBranchVar() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == 0 {
			return v
		}
	}
	return -1
}

// solveUnder searches for a model with every assumption literal true,
// resolving at most maxConflicts conflicts (inclusive: the conflict that
// would exceed the budget returns statusUnknown unresolved; a negative
// budget is unlimited). statusUnsat means no model exists under the
// assumptions — globally unsat only when s.unsat is also set. The solver
// always returns at decision level 0, warm for the next solve; a satisfying
// assignment is snapshotted into s.model before the exit backtrack.
func (s *cdcl) solveUnder(assumps []intLit, maxConflicts int) solveStatus {
	if s.unsat {
		return statusUnsat
	}
	s.cancelUntil(0)
	conflicts := 0
	restartNum := 0
	restartLim := 0
	if s.lubyBase > 0 {
		restartLim = s.lubyBase * luby(1)
	}
	restartConfl := 0
	for {
		if confl := s.propagate(); confl >= 0 {
			if s.decisionLevel() == 0 {
				s.unsat = true
				return statusUnsat
			}
			if maxConflicts >= 0 && conflicts >= maxConflicts {
				s.cancelUntil(0)
				return statusUnknown
			}
			conflicts++
			restartConfl++
			s.stats.conflicts++
			c, bt := s.analyze(confl)
			s.cancelUntil(bt)
			s.record(c)
			if s.unsat {
				return statusUnsat
			}
			s.decayActivities()
			continue
		}
		if restartLim > 0 && restartConfl >= restartLim {
			restartNum++
			s.stats.restarts++
			restartConfl = 0
			restartLim = s.lubyBase * luby(restartNum+1)
			s.cancelUntil(0)
			if s.nLearnts >= s.maxLearnts {
				s.reduceDB()
				s.maxLearnts += s.maxLearnts / 2
			}
			continue
		}
		// Extend the trail: re-push assumptions first (they occupy the
		// lowest decision levels and are restored here after any restart
		// or backjump past them), then branch.
		next := intLit(-1)
		for s.decisionLevel() < len(assumps) {
			p := assumps[s.decisionLevel()]
			switch s.value(p) {
			case 1:
				// Already implied: dummy level keeps assumption index i at
				// decision level i+1.
				s.trailLim = append(s.trailLim, len(s.trail))
			case -1:
				s.cancelUntil(0)
				return statusUnsat // conflicts with the assumptions
			default:
				next = p
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v < 0 {
				s.captureModel()
				s.cancelUntil(0)
				return statusSat
			}
			s.stats.decisions++
			if s.phase[v] == 1 {
				next = posLit(int(v))
			} else {
				next = negLit(int(v))
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, -1)
	}
}

func (s *cdcl) captureModel() {
	if cap(s.model) < s.nVars {
		s.model = make([]int8, s.nVars)
	}
	s.model = s.model[:s.nVars]
	copy(s.model, s.assign)
}

// modelValue reports variable v's value in the last captured model
// (unassigned variables read false).
func (s *cdcl) modelValue(v int) bool { return v < len(s.model) && s.model[v] == 1 }

// Activity heap: most active variable first, index-ascending on ties.

func (s *cdcl) heapLess(a, b int32) bool {
	if s.varAct[a] != s.varAct[b] {
		return s.varAct[a] > s.varAct[b]
	}
	return a < b
}

func (s *cdcl) heapInsert(v int32) {
	if s.heapPos[v] >= 0 {
		return
	}
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *cdcl) heapPop() int32 {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heapPos[s.heap[0]] = 0
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

func (s *cdcl) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = int32(i)
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

func (s *cdcl) heapDown(i int) {
	v := s.heap[i]
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			break
		}
		if c+1 < len(s.heap) && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

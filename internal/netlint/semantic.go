package netlint

import (
	"fmt"

	"gatewords/internal/aig"
	"gatewords/internal/eqcheck"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// The NL4xx rules are semantic: instead of pattern-matching netlist
// structure they lower the whole combinational frame into an AIG and prove
// properties with the eqcheck solver. Three layers keep that affordable:
// structural hashing proves many equalities for free at lowering time, a
// shared 64-lane random-simulation pre-pass filters out everything a few
// random patterns already distinguish, and only the surviving candidates pay
// for SAT queries, each capped by Config.SemanticBudget conflicts and all of
// them together by maxSemanticQueries. The queries run on one solver per
// run, which empties its SAT engine before each, so each gets a new
// solver's answer without a new solver's allocations.

const (
	// defaultSemanticBudget is the per-query SAT conflict cap when
	// Config.SemanticBudget is zero. Small on purpose: lint queries are
	// tiny cones, and an undecided query just means no diagnostic.
	defaultSemanticBudget = 2000
	// semanticSimRounds is the number of 64-lane random rounds in the
	// shared pre-pass (so 64*semanticSimRounds patterns per net).
	semanticSimRounds = 8
	// maxSemanticQueries bounds the total SAT queries of one lint run; a
	// pathological design degrades to fewer diagnostics, never to an
	// unbounded run.
	maxSemanticQueries = 512
	// semanticSeed makes the pre-pass (and therefore the diagnostics)
	// deterministic across runs.
	semanticSeed = 0x2015dac1_51ab01ab
)

func (c Config) semanticMaxConflicts() int {
	if c.SemanticBudget != 0 {
		return c.SemanticBudget
	}
	return defaultSemanticBudget
}

// semState is the AIG lowering plus simulation evidence shared by every
// NL4xx rule in one run.
type semState struct {
	built bool
	g     *aig.AIG
	frame *aig.Frame

	// seen0/seen1 record, per AIG node (positive phase), whether any lane
	// of the pre-pass observed the node at 0 / at 1.
	seen0, seen1 []bool
	// rounds holds each pre-pass round's Sim64 node values, the raw
	// material for per-literal signatures.
	rounds [][]uint64

	solver  *eqcheck.Solver
	queries int
}

// semantic lazily builds the shared state. When the lowering fails (cycles,
// bad arities — conditions the structural rules already flag) the semantic
// rules stand down rather than report on a graph they cannot model.
func (c *context) semantic() *semState {
	if c.sem != nil {
		return c.sem
	}
	c.sem = &semState{}
	g := aig.New()
	f, err := aig.AddFrame(g, c.nl, nil)
	if err != nil {
		return c.sem
	}
	s := c.sem
	s.built = true
	s.g = g
	s.frame = f
	// The pre-pass already simulates more patterns than the solver's own
	// simulation stage would, so the solver goes straight to SAT.
	s.solver = eqcheck.NewSolver(g, eqcheck.Options{SimRounds: -1, MaxConflicts: c.cfg.semanticMaxConflicts()})
	s.seen0 = make([]bool, g.NumNodes())
	s.seen1 = make([]bool, g.NumNodes())
	pat := eqcheck.NewPatterns(semanticSeed)
	words := make([]uint64, g.NumInputs())
	for round := 0; round < semanticSimRounds; round++ {
		pat.Next(words)
		vals := g.Sim64(words, nil)
		for n, w := range vals {
			if w != ^uint64(0) {
				s.seen0[n] = true
			}
			if w != 0 {
				s.seen1[n] = true
			}
		}
		s.rounds = append(s.rounds, vals)
	}
	return s
}

// litSeen reads the pre-pass evidence for a literal (sign-adjusted).
func (s *semState) litSeen(l aig.Lit) (see0, see1 bool) {
	n := l.Node()
	if n >= len(s.seen0) {
		// Literal created after the pre-pass (a miter); no evidence.
		return true, true
	}
	if l.Negated() {
		return s.seen1[n], s.seen0[n]
	}
	return s.seen0[n], s.seen1[n]
}

// litSig hashes the literal's pre-pass value vector: equal functions always
// hash equal, so signature buckets are complete candidate sets for NL401 and
// a mismatch is a free disproof.
func (s *semState) litSig(l aig.Lit) uint64 {
	h := uint64(1469598103934665603)
	for _, vals := range s.rounds {
		h ^= aig.Word(vals, l)
		h *= 1099511628211
	}
	return h
}

// unsat reports whether l is proved unsatisfiable within the run's
// per-query budget.
func (s *semState) unsat(l aig.Lit) bool {
	return s.solver.Solve(l).Status == eqcheck.Unsat
}

// provablyConst classifies a literal: proved is true when l is the same
// value under every input assignment, with val that value. Pre-pass evidence
// short-circuits the common case (both values observed: not constant, no SAT
// spent); otherwise one SAT query settles the surviving phase.
func (s *semState) provablyConst(l aig.Lit) (val int, proved bool) {
	switch l {
	case aig.False:
		return 0, true
	case aig.True:
		return 1, true
	}
	see0, see1 := s.litSeen(l)
	if see0 && see1 {
		return 0, false
	}
	if s.queries >= maxSemanticQueries {
		return 0, false
	}
	s.queries++
	if !see1 {
		// Never observed at 1: candidate constant 0, proved if l is
		// unsatisfiable.
		if s.unsat(l) {
			return 0, true
		}
		return 0, false
	}
	// Never observed at 0: candidate constant 1.
	if s.unsat(l.Not()) {
		return 1, true
	}
	return 0, false
}

// runSemanticConst (NL400) reports combinational gate outputs that are
// provably the same value under every input assignment. This subsumes
// structure-local folds (NL202 sees tied pins; this sees any reason) and is
// exactly the evidence the reduction pipeline uses to justify propagating
// constants.
func runSemanticConst(c *context) {
	s := c.semantic()
	if !s.built {
		return
	}
	for gi := 0; gi < c.nl.GateCount(); gi++ {
		g := c.nl.Gate(netlist.GateID(gi))
		if !g.Kind.IsCombinational() {
			continue
		}
		l, ok := s.frame.NetLit(g.Output)
		if !ok {
			continue
		}
		v, proved := s.provablyConst(l)
		if !proved {
			continue
		}
		how := "SAT-proved"
		if l == aig.False || l == aig.True {
			how = "proved by structural hashing"
		}
		out := c.nl.NetName(g.Output)
		c.report(fmt.Sprintf("gate %q (%s) output %q is provably constant %d (%s)",
			g.Name, g.Kind, out, v, how),
			[]string{g.Name}, []string{out})
	}
}

// runSemanticDup (NL401) reports groups of combinational gates that provably
// compute the identical function but are not structurally identical — the
// duplicates NL203's (kind, canonical inputs) key cannot see, like an AND
// rebuilt as NOT(NAND) or a differently associated XOR tree. Grouping is
// three-tiered: identical AIG literals merge for free (structural hashing),
// signature buckets nominate the remaining candidates, and a miter SAT query
// confirms or refutes each nomination.
func runSemanticDup(c *context) {
	s := c.semantic()
	if !s.built {
		return
	}

	type group struct {
		lit     aig.Lit
		members []netlist.GateID
		viaSAT  bool
	}
	var groups []*group
	byLit := make(map[aig.Lit]*group)
	buckets := make(map[uint64][]*group)

	for gi := 0; gi < c.nl.GateCount(); gi++ {
		g := c.nl.Gate(netlist.GateID(gi))
		if !g.Kind.IsCombinational() {
			continue
		}
		l, ok := s.frame.NetLit(g.Output)
		if !ok || l == aig.False || l == aig.True {
			// Constant outputs are NL400's finding, not duplicates.
			continue
		}
		if gr, ok := byLit[l]; ok {
			gr.members = append(gr.members, netlist.GateID(gi))
			continue
		}
		h := s.litSig(l)
		var joined *group
		for _, gr := range buckets[h] {
			if s.queries >= maxSemanticQueries {
				break
			}
			s.queries++
			if s.unsat(s.g.Xor(l, gr.lit)) {
				joined = gr
				break
			}
		}
		if joined != nil {
			joined.members = append(joined.members, netlist.GateID(gi))
			joined.viaSAT = true
			byLit[l] = joined
			continue
		}
		gr := &group{lit: l, members: []netlist.GateID{netlist.GateID(gi)}}
		groups = append(groups, gr)
		byLit[l] = gr
		buckets[h] = append(buckets[h], gr)
	}

	for _, gr := range groups {
		if len(gr.members) < 2 {
			continue
		}
		// NL203 already reports groups whose members are structurally
		// identical; only a group spanning distinct structural keys is
		// news.
		keys := make(map[string]bool)
		for _, gi := range gr.members {
			keys[dupKey(c.nl, gi)] = true
		}
		if len(keys) < 2 {
			continue
		}
		names := make([]string, len(gr.members))
		for i, gi := range gr.members {
			names[i] = c.nl.Gate(gi).Name
		}
		how := "proved by structural hashing"
		if gr.viaSAT {
			how = "SAT-proved"
		}
		c.report(fmt.Sprintf("gates %q provably compute the identical function despite different structure (%s)",
			names, how), names, nil)
	}
}

// runDeadMuxBranch (NL402) reports MUX2 gates whose select is provably
// constant: one data branch — and its whole cone, if nothing else reads it —
// can never reach the output. The select may look perfectly alive
// structurally (a gate output with fanout); only the semantic proof exposes
// the dead branch.
func runDeadMuxBranch(c *context) {
	s := c.semantic()
	if !s.built {
		return
	}
	for gi := 0; gi < c.nl.GateCount(); gi++ {
		g := c.nl.Gate(netlist.GateID(gi))
		if g.Kind != logic.Mux2 || len(g.Inputs) != 3 {
			continue
		}
		sel := g.Inputs[0]
		l, ok := s.frame.NetLit(sel)
		if !ok {
			continue
		}
		v, proved := s.provablyConst(l)
		if !proved {
			continue
		}
		// Pin convention [sel, a, b]: sel=0 selects a, sel=1 selects b.
		dead := g.Inputs[2]
		pin := "1"
		if v == 1 {
			dead = g.Inputs[1]
			pin = "0"
		}
		c.report(fmt.Sprintf("mux %q select %q is provably constant %d: data pin %s (net %q) is never selected",
			g.Name, c.nl.NetName(sel), v, pin, c.nl.NetName(dead)),
			[]string{g.Name}, []string{c.nl.NetName(sel), c.nl.NetName(dead)})
	}
}

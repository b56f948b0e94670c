package eqcheck

// cnf.go: Tseitin encoding of AIG cones into the CDCL solver. Only the
// transitive fanin cone of the query literals is encoded — the surrounding
// shared AIG (which may hold many unrelated cones) costs nothing. Each AND
// node v = a ∧ b becomes the three clauses (¬v∨a), (¬v∨b), (v∨¬a∨¬b); the
// constant node, when reachable, gets a unit clause forcing it false; input
// nodes stay free. Cones are encoded on demand and never twice, and queries
// are asserted as assumptions instead of unit clauses, so the clause
// database stays valid across queries: a Solver that is not reset pays only
// the structural delta for the next cone. reset forgets every encoded node,
// so the next query is numbered from variable 0 exactly as on a new Solver.

import (
	"slices"

	"gatewords/internal/aig"
)

// encoder incrementally Tseitin-encodes AIG cones into a CDCL solver.
type encoder struct {
	g *aig.AIG
	s *cdcl
	// varOf maps an AIG node to its CNF variable plus one; 0 means the node
	// is not encoded. It covers every node of g as of the last ensure.
	varOf []int32
	// encoded lists the nodes with a variable, the entries reset clears.
	encoded []int32
}

func newEncoder(g *aig.AIG, s *cdcl) *encoder {
	return &encoder{g: g, s: s}
}

// reset forgets every encoded node, in time proportional to their number.
func (e *encoder) reset() {
	for _, n := range e.encoded {
		e.varOf[n] = 0
	}
	e.encoded = e.encoded[:0]
}

// varFor returns node n's CNF variable and whether n is encoded.
func (e *encoder) varFor(n int) (int, bool) {
	if n >= len(e.varOf) || e.varOf[n] == 0 {
		return 0, false
	}
	return int(e.varOf[n] - 1), true
}

// lit maps an AIG literal over an encoded node to its CNF literal.
func (e *encoder) lit(l aig.Lit) intLit {
	v := int(e.varOf[l.Node()] - 1)
	if l.Negated() {
		return negLit(v)
	}
	return posLit(v)
}

// ensure encodes the fanin cones of the given literals, skipping every node
// already encoded. A node's encoding implies its whole fanin cone is encoded
// (nodes are only ever introduced by a cone walk that includes their
// ancestors), so the walk stops at encoded nodes and touches only the
// unencoded part of the cones: re-proving a cone already seen is free. The
// fresh nodes are numbered in ascending node order, fanins first, which
// fixes the CNF variable numbers and so the search. It reports whether any
// new node was encoded.
func (e *encoder) ensure(roots ...aig.Lit) bool {
	if n := e.g.NumNodes(); n > len(e.varOf) {
		// The AIG grew since the last query (callers build miters between
		// queries); new nodes start unencoded.
		e.varOf = slices.Grow(e.varOf, n-len(e.varOf))[:n]
	}
	fresh := e.g.ConeNodesUntil(func(n int) bool { return e.varOf[n] != 0 }, roots...)
	if len(fresh) == 0 {
		return false
	}
	// Three clauses of at most seven literals per AND node: size the slab
	// to the cone.
	e.s.reserve(7 * len(fresh))
	for _, n := range fresh {
		v := e.s.newVar()
		e.varOf[n] = int32(v + 1)
		e.encoded = append(e.encoded, int32(n))
		if f0, f1, ok := e.g.IsAnd(n); ok {
			a, b := e.lit(f0), e.lit(f1)
			e.s.addClause(negLit(v), a)
			e.s.addClause(negLit(v), b)
			e.s.addClause(posLit(v), litNot(a), litNot(b))
		} else if n == 0 {
			e.s.addClause(negLit(v))
		}
	}
	return true
}

package eqcheck

// cnf.go: Tseitin encoding of one query's AIG cone into the CDCL solver.
// Only the transitive fanin cone of the query literal is encoded — the
// surrounding shared AIG (which may hold many unrelated cones) costs nothing.
// Each AND node v = a ∧ b becomes the three clauses (¬v∨a), (¬v∨b),
// (v∨¬a∨¬b); the constant node, when reachable, gets a unit clause forcing it
// false; input nodes stay free. The query literal is passed to the solver as
// an assumption, not a unit clause, so the retry ladder re-searches the same
// clause database with a larger budget.

import (
	"slices"

	"gatewords/internal/aig"
)

// encoder Tseitin-encodes one AIG cone at a time into a CDCL solver.
type encoder struct {
	g *aig.AIG
	s *cdcl
	// varOf maps an AIG node to its CNF variable plus one; 0 means the node
	// is outside the encoded cone. It covers every node of g as of the last
	// encode.
	varOf []int32
	// cone lists the encoded nodes, the entries the next encode clears.
	cone []int
}

// lit maps an AIG literal over an encoded node to its CNF literal.
func (e *encoder) lit(l aig.Lit) intLit {
	v := int(e.varOf[l.Node()] - 1)
	if l.Negated() {
		return negLit(v)
	}
	return posLit(v)
}

// encode forgets the previous cone, in time proportional to its size, and
// encodes the fanin cone of root into s, which the caller has reset. The
// nodes are numbered from variable 0 in ascending node order, fanins first,
// which fixes the CNF variable numbers and so the search.
func (e *encoder) encode(root aig.Lit) {
	for _, n := range e.cone {
		e.varOf[n] = 0
	}
	if n := e.g.NumNodes(); n > len(e.varOf) {
		// The AIG grew since the last query (callers build miters between
		// queries); new nodes start unencoded.
		e.varOf = slices.Grow(e.varOf, n-len(e.varOf))[:n]
	}
	e.cone = e.g.ConeNodes(root)
	// Three clauses of at most seven literals per AND node: size the slab
	// to the cone.
	e.s.reserve(7 * len(e.cone))
	for _, n := range e.cone {
		v := e.s.newVar()
		e.varOf[n] = int32(v + 1)
		if f0, f1, ok := e.g.IsAnd(n); ok {
			a, b := e.lit(f0), e.lit(f1)
			e.s.addClause(negLit(v), a)
			e.s.addClause(negLit(v), b)
			e.s.addClause(posLit(v), litNot(a), litNot(b))
		} else if n == 0 {
			e.s.addClause(negLit(v))
		}
	}
}

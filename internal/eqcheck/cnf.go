package eqcheck

// cnf.go: incremental Tseitin encoding of AIG cones into the CDCL solver.
// Only the transitive fanin cone of the query literals is encoded — the
// surrounding shared AIG (which may hold many unrelated cones) costs
// nothing. Each AND node v = a ∧ b becomes the three clauses (¬v∨a), (¬v∨b),
// (v∨¬a∨¬b); the constant node, when reachable, gets a unit clause forcing
// it false; input nodes stay free. Cones are encoded on demand and never
// twice, so a warm Solver that has proved one root pays only the structural
// delta for the next, and queries are asserted as assumptions instead of
// unit clauses (the clause database stays valid across queries).

import "gatewords/internal/aig"

// encoder incrementally Tseitin-encodes AIG cones into a CDCL solver.
type encoder struct {
	g     *aig.AIG
	s     *cdcl
	varOf map[int]int // AIG node -> CNF variable
}

// newEncoder returns an encoder into s; varOf is made by the first ensure,
// sized to the first cone.
func newEncoder(g *aig.AIG, s *cdcl) *encoder {
	return &encoder{g: g, s: s}
}

// lit maps an AIG literal over an encoded node to its CNF literal.
func (e *encoder) lit(l aig.Lit) intLit {
	v := e.varOf[l.Node()]
	if l.Negated() {
		return negLit(v)
	}
	return posLit(v)
}

// ensure encodes the fanin cones of the given literals, skipping every node
// already encoded. A node's presence in varOf implies its whole fanin cone
// is present (nodes are only ever introduced by a cone walk that includes
// their ancestors), so the walk stops at encoded nodes and touches only the
// unencoded part of the cones: re-proving a cone already seen is free. The
// fresh nodes are numbered in ascending node order, fanins first, which
// fixes the CNF variable numbers and so the search. It reports whether any
// new node was encoded.
func (e *encoder) ensure(roots ...aig.Lit) bool {
	fresh := e.g.ConeNodesUntil(func(n int) bool {
		_, ok := e.varOf[n]
		return ok
	}, roots...)
	if len(fresh) == 0 {
		return false
	}
	if e.varOf == nil {
		e.varOf = make(map[int]int, len(fresh))
	}
	for _, n := range fresh {
		e.varOf[n] = e.s.newVar()
		if f0, f1, ok := e.g.IsAnd(n); ok {
			v := posLit(e.varOf[n])
			a, b := e.lit(f0), e.lit(f1)
			e.s.addClause(litNot(v), a)
			e.s.addClause(litNot(v), b)
			e.s.addClause(v, litNot(a), litNot(b))
		} else if n == 0 {
			e.s.addClause(negLit(e.varOf[n]))
		}
	}
	return true
}

// Package aig implements an And-Inverter Graph: the canonical two-input
// normal form for combinational logic, with structural hashing and constant
// folding applied at construction. It is the semantic core of the
// equivalence-checking layer (internal/eqcheck): two cones lowered into one
// shared AIG that end on the same literal are proved equal by construction,
// and the 64-bit-parallel simulator plus the Tseitin encoding both read the
// graph directly.
//
// Representation: node 0 is the constant-false node; every other node is
// either a free input variable or a two-input AND. A Lit is a node index
// shifted left one bit with the low bit carrying negation, so inversion is
// free (lit ^ 1) and the graph never stores NOT nodes. Nodes are appended in
// topological order by construction — a node's fanins always have smaller
// indices — which lets simulation and CNF export run as single forward
// passes.
package aig

import (
	"fmt"
	"math/bits"
)

// Lit is a literal: an AIG node index with a negation bit in the LSB.
type Lit uint32

// The two constant literals (both refer to node 0).
const (
	False Lit = 0 // constant-false literal
	True  Lit = 1 // constant-true literal (node 0, negated)
)

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Node returns the node index the literal refers to.
func (l Lit) Node() int { return int(l >> 1) }

// Negated reports whether the literal is complemented.
func (l Lit) Negated() bool { return l&1 == 1 }

// String renders a literal as "n12" / "!n12" / "0" / "1".
func (l Lit) String() string {
	switch l {
	case False:
		return "0"
	case True:
		return "1"
	}
	if l.Negated() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// node is one AIG node. AND nodes store their two fanin literals; input
// nodes and the constant node store the sentinel in fan0 and the input index
// (or -1 for the constant) in fan1.
type node struct {
	fan0, fan1 Lit
}

// noFanin marks non-AND nodes (constant, inputs) in node.fan0.
const noFanin Lit = ^Lit(0)

// AIG is a growing And-Inverter Graph with structural hashing.
type AIG struct {
	nodes  []node
	strash map[[2]Lit]Lit

	inputNode []int32  // node index of each input, by input index
	inputName []string // name of each input, by input index
	byName    map[string]int
	numAnds   int
}

// New returns an empty AIG holding only the constant node.
func New() *AIG {
	g := &AIG{
		strash: make(map[[2]Lit]Lit),
		byName: make(map[string]int),
	}
	g.nodes = append(g.nodes, node{fan0: noFanin, fan1: noFanin})
	return g
}

// NumNodes returns the total node count (constant + inputs + ANDs).
func (g *AIG) NumNodes() int { return len(g.nodes) }

// NumAnds returns the number of AND nodes.
func (g *AIG) NumAnds() int { return g.numAnds }

// NumInputs returns the number of free input variables.
func (g *AIG) NumInputs() int { return len(g.inputNode) }

// InputName returns the name of input i.
func (g *AIG) InputName(i int) string { return g.inputName[i] }

// InputLit returns the positive literal of input i.
func (g *AIG) InputLit(i int) Lit { return Lit(g.inputNode[i]) << 1 }

// InputByName returns the positive literal of the named input, if it exists.
func (g *AIG) InputByName(name string) (Lit, bool) {
	i, ok := g.byName[name]
	if !ok {
		return False, false
	}
	return g.InputLit(i), true
}

// Input returns the literal of the free variable called name, creating the
// input node on first use. Inputs are deduplicated by name, which is what
// lets two netlists (or two cones) lowered into one AIG share their input
// space.
func (g *AIG) Input(name string) Lit {
	if i, ok := g.byName[name]; ok {
		return g.InputLit(i)
	}
	idx := len(g.nodes)
	g.nodes = append(g.nodes, node{fan0: noFanin, fan1: Lit(len(g.inputNode))})
	g.byName[name] = len(g.inputNode)
	g.inputNode = append(g.inputNode, int32(idx))
	g.inputName = append(g.inputName, name)
	return Lit(idx) << 1
}

// inputIndex returns the input index of node n, or -1 for AND/constant nodes.
func (g *AIG) inputIndex(n int) int {
	nd := g.nodes[n]
	if nd.fan0 != noFanin || nd.fan1 == noFanin {
		return -1
	}
	return int(nd.fan1)
}

// IsAnd reports whether node n is an AND node and returns its fanins.
func (g *AIG) IsAnd(n int) (fan0, fan1 Lit, ok bool) {
	nd := g.nodes[n]
	if nd.fan0 == noFanin {
		return 0, 0, false
	}
	return nd.fan0, nd.fan1, true
}

// And returns the literal of a AND b, applying the one-level folding rules
// (constants, idempotence, complementation) and structural hashing.
func (g *AIG) And(a, b Lit) Lit {
	// Constant and trivial folds.
	if a == False || b == False || a == b.Not() {
		return False
	}
	if a == True || a == b {
		return b
	}
	if b == True {
		return a
	}
	// Canonical operand order for hashing.
	if a > b {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	if l, ok := g.strash[key]; ok {
		return l
	}
	idx := len(g.nodes)
	g.nodes = append(g.nodes, node{fan0: a, fan1: b})
	g.numAnds++
	l := Lit(idx) << 1
	g.strash[key] = l
	return l
}

// Or returns a OR b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a XOR b.
func (g *AIG) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns sel ? b : a (matching the netlist MUX2 pin convention
// [sel, a, b]). Equal data pins fold to the data value — the structural
// counterpart of logic.Eval's MUX2 X-optimism rule.
func (g *AIG) Mux(sel, a, b Lit) Lit {
	if a == b {
		return a
	}
	return g.Or(g.And(sel, b), g.And(sel.Not(), a))
}

// AndN folds AND over ins (True for the empty list).
func (g *AIG) AndN(ins []Lit) Lit {
	out := True
	for _, l := range ins {
		out = g.And(out, l)
	}
	return out
}

// OrN folds OR over ins (False for the empty list).
func (g *AIG) OrN(ins []Lit) Lit {
	out := False
	for _, l := range ins {
		out = g.Or(out, l)
	}
	return out
}

// XorN folds XOR over ins (odd parity; False for the empty list).
func (g *AIG) XorN(ins []Lit) Lit {
	out := False
	for _, l := range ins {
		out = g.Xor(out, l)
	}
	return out
}

// Support returns the input indices the cone of l depends on, ascending
// (input indices grow with node indices).
func (g *AIG) Support(l Lit) []int {
	cone := g.ConeNodes(l)
	out := cone[:0]
	for _, n := range cone {
		if i := g.inputIndex(n); i >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// ConeNodes returns the node indices in the transitive fanin cone of each
// root (inputs and constant included), in ascending index order.
func (g *AIG) ConeNodes(roots ...Lit) []int { return g.ConeNodesUntil(nil, roots...) }

// ConeNodesUntil is ConeNodes with the walk cut at every node for which stop
// (when non-nil) reports true: such a node is left out, and so is anything
// reachable only through cut nodes. The walk touches only the nodes it
// returns and their fanins; the visited set is one bit per node up to the
// highest root, read back in index order.
func (g *AIG) ConeNodesUntil(stop func(n int) bool, roots ...Lit) []int {
	top := 0
	for _, r := range roots {
		top = max(top, r.Node())
	}
	seen := make([]uint64, top>>6+1)
	var stack []int
	count := 0
	mark := func(n int) {
		if seen[n>>6]&(1<<(n&63)) != 0 || (stop != nil && stop(n)) {
			return
		}
		seen[n>>6] |= 1 << (n & 63)
		stack = append(stack, n)
		count++
	}
	for _, r := range roots {
		mark(r.Node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f0, f1, ok := g.IsAnd(n); ok {
			mark(f0.Node())
			mark(f1.Node())
		}
	}
	out := make([]int, 0, count)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// Sim64 evaluates every node under 64 parallel input patterns: inputWords[i]
// carries the 64 values of input i, one per bit lane. The returned slice is
// indexed by node; read literals with Word. buf, when non-nil, is reused.
func (g *AIG) Sim64(inputWords []uint64, buf []uint64) []uint64 {
	vals := buf
	if cap(vals) < len(g.nodes) {
		vals = make([]uint64, len(g.nodes))
	}
	vals = vals[:len(g.nodes)]
	vals[0] = 0
	for n := 1; n < len(g.nodes); n++ {
		nd := g.nodes[n]
		if nd.fan0 == noFanin {
			vals[n] = inputWords[nd.fan1]
			continue
		}
		vals[n] = litWord(vals, nd.fan0) & litWord(vals, nd.fan1)
	}
	return vals
}

func litWord(vals []uint64, l Lit) uint64 {
	w := vals[l.Node()]
	if l.Negated() {
		return ^w
	}
	return w
}

// Word reads the 64 parallel values of a literal from a Sim64 result.
func Word(vals []uint64, l Lit) uint64 { return litWord(vals, l) }

// EvalBool evaluates literal l under a single assignment of the inputs
// (indexed by input index; missing entries read false). Only the cone of l
// is evaluated, one bit per node, in ascending (topological) order.
func (g *AIG) EvalBool(assign []bool, l Lit) bool {
	val := make([]uint64, l.Node()>>6+1)
	bit := func(l Lit) bool {
		n := l.Node()
		return val[n>>6]>>(n&63)&1 == 1 != l.Negated()
	}
	for _, n := range g.ConeNodes(l) {
		nd := g.nodes[n]
		var v bool
		switch {
		case nd.fan0 != noFanin:
			v = bit(nd.fan0) && bit(nd.fan1)
		case nd.fan1 != noFanin:
			i := int(nd.fan1)
			v = i < len(assign) && assign[i]
		}
		if v {
			val[n>>6] |= 1 << (n & 63)
		}
	}
	return bit(l)
}

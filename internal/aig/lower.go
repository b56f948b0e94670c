package aig

import (
	"fmt"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// LowerGate lowers one combinational gate of the netlist cell vocabulary
// onto AIG literals. It returns an error for sequential or invalid kinds and
// for arities the kind does not admit (mirroring logic.Eval's panics, but
// recoverable: the equivalence checker must degrade to Unknown, not crash,
// on malformed views).
func (g *AIG) LowerGate(k logic.Kind, in []Lit) (Lit, error) {
	if !k.ValidArity(len(in)) {
		return False, fmt.Errorf("aig: %s gate with %d inputs", k, len(in))
	}
	switch k {
	case logic.Buf:
		return in[0], nil
	case logic.Not:
		return in[0].Not(), nil
	case logic.And:
		return g.AndN(in), nil
	case logic.Nand:
		return g.AndN(in).Not(), nil
	case logic.Or:
		return g.OrN(in), nil
	case logic.Nor:
		return g.OrN(in).Not(), nil
	case logic.Xor:
		return g.XorN(in), nil
	case logic.Xnor:
		return g.XorN(in).Not(), nil
	case logic.Mux2:
		return g.Mux(in[0], in[1], in[2]), nil
	case logic.Aoi21:
		return g.Or(g.And(in[0], in[1]), in[2]).Not(), nil
	case logic.Oai21:
		return g.And(g.Or(in[0], in[1]), in[2]).Not(), nil
	}
	return False, fmt.Errorf("aig: cannot lower non-combinational kind %s", k)
}

// constLit converts a known logic value to its constant literal.
func constLit(v logic.Value) Lit {
	if v == logic.One {
		return True
	}
	return False
}

// Frame is one netlist's combinational frame lowered into a (possibly
// shared) AIG: flip-flops are cut, so the frame's inputs are the primary
// inputs plus the flip-flop outputs (current state), and its outputs are the
// primary outputs plus the flip-flop D inputs (next state). Input variables
// are keyed by net name; lowering two netlists into one AIG therefore
// identifies their like-named inputs, which is what makes name-matched miter
// construction trivial.
type Frame struct {
	G *AIG
	// Inputs maps frame-input net names to their literals (pinned nets are
	// absent: they lowered to constants).
	Inputs map[string]Lit
	// Outputs maps observable names to literals: primary outputs under their
	// net name, next-state functions under "ff:" + the flip-flop gate name.
	Outputs map[string]Lit
	// OutputNames lists Outputs' keys in deterministic order (POs in net-ID
	// order, then flip-flops in file order).
	OutputNames []string

	netLits []Lit
	netHave []bool
}

// NetLit returns the literal computing net id's value in the frame, when the
// lowering produced one (every driven or input net has one; ok is false for
// nets that exist only as declarations).
func (f *Frame) NetLit(id netlist.NetID) (Lit, bool) {
	if int(id) >= len(f.netLits) || !f.netHave[id] {
		return False, false
	}
	return f.netLits[id], true
}

// FFPrefix distinguishes next-state observables from primary outputs in
// Frame.Outputs keys.
const FFPrefix = "ff:"

// AddFrame lowers nl's combinational frame into g. pin forces named nets to
// constants: a pinned frame-input simply becomes a constant, while a pinned
// internal net is cut — its driver cone is ignored and every reader sees the
// constant (the cofactor semantics used to compare a design against a
// reduced version under a control assignment). It fails on combinationally
// cyclic netlists and on gates the AIG cannot express.
func AddFrame(g *AIG, nl *netlist.Netlist, pin map[string]logic.Value) (*Frame, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	lits := make([]Lit, nl.NetCount())
	have := make([]bool, nl.NetCount())

	pinned := func(id netlist.NetID) (Lit, bool) {
		if len(pin) == 0 {
			return False, false
		}
		v, ok := pin[nl.NetName(id)]
		if !ok || !v.Known() {
			return False, false
		}
		return constLit(v), true
	}

	// Frame inputs: PIs and flip-flop outputs.
	for ni := 0; ni < nl.NetCount(); ni++ {
		id := netlist.NetID(ni)
		n := nl.Net(id)
		isFF := n.Driver != netlist.NoGate && nl.Gate(n.Driver).Kind == logic.DFF
		if !n.IsPI && !isFF {
			continue
		}
		if l, ok := pinned(id); ok {
			lits[id], have[id] = l, true
			continue
		}
		lits[id], have[id] = g.Input(n.Name), true
	}

	// Combinational gates in topological order. A gate whose output is
	// pinned is cut: readers already see the constant. LowerGate keeps none
	// of its inputs, so one buffer serves every gate.
	var ins []Lit
	for _, gi := range order {
		gate := nl.Gate(gi)
		if l, ok := pinned(gate.Output); ok {
			lits[gate.Output], have[gate.Output] = l, true
			continue
		}
		ins = ins[:0]
		for _, in := range gate.Inputs {
			if !have[in] {
				// Undriven non-PI net (an X source): model it as a free
				// variable so lowering stays total on lenient netlists.
				lits[in], have[in] = g.Input(nl.NetName(in)), true
			}
			ins = append(ins, lits[in])
		}
		l, err := g.LowerGate(gate.Kind, ins)
		if err != nil {
			return nil, fmt.Errorf("aig: netlist %s gate %q: %w", nl.Name, gate.Name, err)
		}
		if have[gate.Output] {
			return nil, fmt.Errorf("aig: netlist %s: net %q multiply lowered", nl.Name, nl.NetName(gate.Output))
		}
		lits[gate.Output], have[gate.Output] = l, true
	}

	f := &Frame{G: g, Inputs: make(map[string]Lit), Outputs: make(map[string]Lit)}
	for ni := 0; ni < nl.NetCount(); ni++ {
		id := netlist.NetID(ni)
		n := nl.Net(id)
		isFF := n.Driver != netlist.NoGate && nl.Gate(n.Driver).Kind == logic.DFF
		if (n.IsPI || isFF) && have[id] {
			if _, isPinned := pinned(id); !isPinned {
				f.Inputs[n.Name] = lits[id]
			}
		}
		if n.IsPO {
			if !have[id] {
				lits[id], have[id] = g.Input(n.Name), true
			}
			f.Outputs[n.Name] = lits[id]
			f.OutputNames = append(f.OutputNames, n.Name)
		}
	}
	for _, gi := range nl.DFFs() {
		gate := nl.Gate(gi)
		d := gate.Inputs[0]
		if !have[d] {
			lits[d], have[d] = g.Input(nl.NetName(d)), true
		}
		key := FFPrefix + gate.Name
		f.Outputs[key] = lits[d]
		f.OutputNames = append(f.OutputNames, key)
	}
	f.netLits, f.netHave = lits, have
	return f, nil
}

// ConeInternal computes the internal-net set of the depth-limited fanin cone
// of root under view: a net is internal when its minimum fanin distance from
// root is below depth and it has a combinational driver and no constant
// value under the view. Everything else the cone touches — the depth
// frontier, primary inputs, flip-flop outputs — is a cut point, lowered as a
// free variable.
//
// The min-distance (BFS) rule gives every net a single role, which is what
// makes the cut semantically meaningful: the cone function is the
// composition of the internal gates over the cut variables.
func ConeInternal(view netlist.View, root netlist.NetID, depth int) map[netlist.NetID]bool {
	internal := make(map[netlist.NetID]bool)
	type item struct {
		net  netlist.NetID
		dist int
	}
	queue := []item{{root, 0}}
	seen := map[netlist.NetID]bool{root: true}
	var buf []netlist.NetID
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.dist >= depth {
			continue
		}
		if _, isConst := view.NetConst(it.net); isConst {
			continue
		}
		d := view.DriverOf(it.net)
		if d == netlist.NoGate || !view.GateKind(d).IsCombinational() {
			continue
		}
		internal[it.net] = true
		buf = view.GateInputs(d, buf[:0])
		for _, in := range buf {
			if !seen[in] {
				seen[in] = true
				queue = append(queue, item{in, it.dist + 1})
			}
		}
	}
	return internal
}

// ConeLowerer lowers fanin cones from netlist.Views into one shared AIG,
// keying the cut variables by net so that several lowerings — an original
// cone and its rewritten overlay — share their input space and can be
// mitered directly.
type ConeLowerer struct {
	G    *AIG
	name func(netlist.NetID) string
	vars map[netlist.NetID]Lit
}

// NewConeLowerer returns a lowerer over g. name renders a net as the
// variable name used for its cut literal (typically netlist.NetName).
func NewConeLowerer(g *AIG, name func(netlist.NetID) string) *ConeLowerer {
	return &ConeLowerer{G: g, name: name, vars: make(map[netlist.NetID]Lit)}
}

// VarFor returns the shared cut variable of a net.
func (cl *ConeLowerer) VarFor(n netlist.NetID) Lit {
	if l, ok := cl.vars[n]; ok {
		return l
	}
	l := cl.G.Input(cl.name(n))
	cl.vars[n] = l
	return l
}

// maxLowerNets bounds one cone lowering; exceeding it signals a runaway
// (cyclic or adversarial) view rather than a real depth-limited cone.
const maxLowerNets = 1 << 20

// LowerCut lowers the cone of root under view, expanding exactly the nets in
// internal (see ConeInternal) and cutting everything else to shared free
// variables; nets the view knows constant fold to constant literals. Passing
// one view's ConeInternal set to a second view's LowerCut compares the two
// views over the same frontier, which is the soundness condition for cone
// equivalence checking: a rewritten view's gates only ever reference nets of
// the original cone, so the shared cut covers both.
func (cl *ConeLowerer) LowerCut(view netlist.View, root netlist.NetID, internal map[netlist.NetID]bool) (Lit, error) {
	memo := make(map[netlist.NetID]Lit, len(internal))
	var active map[netlist.NetID]bool // cycle guard for broken views
	var buf []netlist.NetID
	var lower func(n netlist.NetID) (Lit, error)
	lower = func(n netlist.NetID) (Lit, error) {
		if l, ok := memo[n]; ok {
			return l, nil
		}
		if v, isConst := view.NetConst(n); isConst {
			l := constLit(v)
			memo[n] = l
			return l, nil
		}
		if !internal[n] {
			l := cl.VarFor(n)
			memo[n] = l
			return l, nil
		}
		d := view.DriverOf(n)
		if d == netlist.NoGate || !view.GateKind(d).IsCombinational() {
			l := cl.VarFor(n)
			memo[n] = l
			return l, nil
		}
		if active == nil {
			active = make(map[netlist.NetID]bool)
		}
		if active[n] {
			return False, fmt.Errorf("aig: combinational cycle through net %q during cone lowering", cl.name(n))
		}
		if len(memo) > maxLowerNets {
			return False, fmt.Errorf("aig: cone lowering exceeded %d nets", maxLowerNets)
		}
		active[n] = true
		buf = view.GateInputs(d, buf[:0])
		ins := make([]Lit, len(buf))
		pins := append([]netlist.NetID(nil), buf...)
		for i, in := range pins {
			l, err := lower(in)
			if err != nil {
				return False, err
			}
			ins[i] = l
		}
		active[n] = false
		l, err := cl.G.LowerGate(view.GateKind(d), ins)
		if err != nil {
			return False, err
		}
		memo[n] = l
		return l, nil
	}
	return lower(root)
}

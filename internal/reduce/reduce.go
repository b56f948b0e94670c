// Package reduce implements circuit reduction under control-signal value
// assignments (DAC'15 §2.5): assigned values are propagated forward and
// backward throughout the netlist until fixpoint; nets with inferred
// constants and gates with determined outputs are removed; gates left with a
// single live input collapse to buffers or inverters.
//
// A Reduction is an overlay implementing netlist.View — the underlying
// netlist is never mutated, so many candidate assignments can be explored
// cheaply. Materialize builds a real simplified netlist when one is needed
// (for example to hand the reduced circuit to another word-identification
// tool, the integration path of §2.1).
package reduce

import (
	"fmt"
	"slices"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
)

// Reduction is the result of propagating an assignment through a netlist.
// It implements netlist.View over the simplified circuit. One returned by
// Propagator.Apply is valid until that propagator's next apply; Detach
// keeps it longer.
type Reduction struct {
	nl *netlist.Netlist
	// vals is every net's inferred constant, indexed by NetID (X = live);
	// trail lists the nets vals assigns, in assignment order, so the state
	// resets in O(touched) for the next apply (see Propagator).
	vals     []logic.Value
	trail    []netlist.NetID
	conflict bool
	// ConflictGate names the gate where a contradiction surfaced, for
	// diagnostics; empty when the assignment is feasible.
	ConflictGate string

	// eff caches the rewritten form of each gate the view has been asked
	// about; nil until the first query.
	eff map[netlist.GateID]effGate

	// malformed records the first lenient-netlist gate the propagation could
	// not evaluate (invalid arity for its kind); it preempts the generic
	// conflict error.
	malformed error
}

// effGate is one gate's rewritten kind and live input pins.
type effGate struct {
	kind logic.Kind
	ins  []netlist.NetID
}

// ErrConflict is returned by Apply when an assignment is infeasible: the
// implied values contradict each other somewhere in the netlist.
var ErrConflict = fmt.Errorf("reduce: assignment is contradictory")

// ErrMalformedGate is returned (wrapped) by Apply and TrySimplifyGate when
// propagation reaches a gate whose arity is invalid for its kind — legal on
// leniently parsed netlists (verilog.ParseLenient), fatal to evaluate.
var ErrMalformedGate = fmt.Errorf("reduce: malformed gate")

// Apply propagates assign through nl and returns the resulting overlay.
// Propagation runs forward (gate inputs determine outputs) and backward
// (known outputs imply inputs, unit-propagation style) to fixpoint. Values
// never cross flip-flops: a constant D input says nothing about the stored
// state in general, and word identification is a combinational analysis.
func Apply(nl *netlist.Netlist, assign map[netlist.NetID]logic.Value) (*Reduction, error) {
	return ApplyObserved(nl, assign, nil)
}

// ApplyObserved is Apply with observability: the propagation's gate-visit
// count and peak worklist depth report into rec (see internal/obs). A nil
// rec records nothing and costs two local integer updates per visit.
func ApplyObserved(nl *netlist.Netlist, assign map[netlist.NetID]logic.Value, rec *obs.Recorder) (*Reduction, error) {
	return NewPropagator(nl).Apply(assign, rec)
}

// Propagator runs many applies over one netlist on the same dense state:
// each apply first clears the nets the previous one assigned (the undo
// trail), so its cost follows the propagation rather than the netlist size,
// and its buffers are reused from apply to apply. The Reduction an apply
// returns shares that state. A Propagator is not safe for concurrent use.
type Propagator struct {
	red   Reduction
	topo  topology
	queue []netlist.NetID
	inbuf []logic.Value
}

// topology is the flat copy of the netlist that propagation reads: each
// gate's kind, output and input pins, and each net's driver and fanout. Pins
// and fanouts are in CSR form, one flat array per relation with a start
// offset per gate or net, so a visit loads from a few contiguous arrays
// instead of chasing Gate and Net records and their separately allocated
// slices. gates and nets each end with a sentinel entry whose offset closes
// the last list.
type topology struct {
	gates  []flatGate // by GateID
	pins   []netlist.NetID
	nets   []flatNet // by NetID
	fanout []netlist.GateID
}

// flatGate is one gate of a topology: its pins are
// pins[gates[g].pin:gates[g+1].pin].
type flatGate struct {
	pin  int32
	out  netlist.NetID
	kind logic.Kind
}

// flatNet is one net of a topology: its fanout gates are
// fanout[nets[n].fanout:nets[n+1].fanout].
type flatNet struct {
	fanout int32
	driver netlist.GateID
}

// build copies nl's current gates and nets into t, each array allocated
// once at its final size.
func (t *topology) build(nl *netlist.Netlist) {
	nPins, nFanout := 0, 0
	for g := 0; g < nl.GateCount(); g++ {
		nPins += len(nl.Gate(netlist.GateID(g)).Inputs)
	}
	for n := 0; n < nl.NetCount(); n++ {
		nFanout += len(nl.Net(netlist.NetID(n)).Fanout)
	}
	t.gates = make([]flatGate, 0, nl.GateCount()+1)
	t.pins = make([]netlist.NetID, 0, nPins)
	for g := 0; g < nl.GateCount(); g++ {
		gate := nl.Gate(netlist.GateID(g))
		t.gates = append(t.gates, flatGate{pin: int32(len(t.pins)), out: gate.Output, kind: gate.Kind})
		t.pins = append(t.pins, gate.Inputs...)
	}
	t.gates = append(t.gates, flatGate{pin: int32(len(t.pins))})
	t.nets = make([]flatNet, 0, nl.NetCount()+1)
	t.fanout = make([]netlist.GateID, 0, nFanout)
	for n := 0; n < nl.NetCount(); n++ {
		net := nl.Net(netlist.NetID(n))
		t.nets = append(t.nets, flatNet{fanout: int32(len(t.fanout)), driver: net.Driver})
		t.fanout = append(t.fanout, net.Fanout...)
	}
	t.nets = append(t.nets, flatNet{fanout: int32(len(t.fanout))})
}

// NewPropagator returns a propagator over nl, holding a flat copy of nl's
// topology. Its dense state is sized on the first apply.
func NewPropagator(nl *netlist.Netlist) *Propagator {
	p := &Propagator{red: Reduction{nl: nl}}
	p.topo.build(nl)
	return p
}

// Apply is ApplyObserved on the propagator's reused state: the returned
// Reduction is overwritten by the next call. A netlist grown since the last
// apply (gates or nets added) is copied afresh first.
func (p *Propagator) Apply(assign map[netlist.NetID]logic.Value, rec *obs.Recorder) (*Reduction, error) {
	r := &p.red
	r.reset()
	t := &p.topo
	if len(t.gates) != r.nl.GateCount()+1 || len(t.nets) != r.nl.NetCount()+1 {
		t.build(r.nl)
	}
	if n := r.nl.NetCount(); len(r.vals) < n {
		r.vals = make([]logic.Value, n)
	}
	// The fixpoint is confluent, but the peak-queue-depth gauge reported
	// below is not: seed in net order so observability output is as
	// deterministic as the result.
	queue := p.queue[:0]
	for n := range assign {
		queue = append(queue, n)
	}
	slices.Sort(queue)
	for _, n := range queue {
		v := assign[n]
		if !v.Known() {
			p.queue = queue
			return nil, fmt.Errorf("reduce: assignment of X to net %q", r.nl.NetName(n))
		}
		r.set(n, v)
	}
	visits, maxQueue := int64(0), int64(len(queue))
	for len(queue) > 0 {
		if q := int64(len(queue)); q > maxQueue {
			maxQueue = q
		}
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		// Forward: every fanout gate may now have a determined output, and
		// a newly known output may backward-imply sibling inputs.
		for _, g := range t.fanout[t.nets[n].fanout:t.nets[n+1].fanout] {
			visits++
			queue = p.visitGate(g, queue)
			if r.conflict {
				break
			}
		}
		// Backward: the driver of n now has a known output.
		if d := t.nets[n].driver; !r.conflict && d != netlist.NoGate {
			visits++
			queue = p.visitGate(d, queue)
		}
		if r.conflict {
			break
		}
	}
	p.queue = queue
	rec.Add(obs.CtrReduceGateVisits, visits)
	rec.Max(obs.GaugeReduceQueue, maxQueue)
	if r.conflict {
		return nil, r.propagationError()
	}
	return r, nil
}

// reset clears the previous apply's assignments and verdict.
func (r *Reduction) reset() {
	for _, n := range r.trail {
		r.vals[n] = logic.X
	}
	r.trail = r.trail[:0]
	r.conflict, r.ConflictGate, r.malformed = false, "", nil
	clear(r.eff)
}

// set records an inferred constant for a live net.
func (r *Reduction) set(n netlist.NetID, v logic.Value) {
	r.vals[n] = v
	r.trail = append(r.trail, n)
}

// Detach returns a copy of r that owns its state, so it stays valid after
// the propagator that produced r applies again.
func (r *Reduction) Detach() *Reduction {
	d := *r
	d.vals = slices.Clone(r.vals)
	d.trail = slices.Clone(r.trail)
	d.eff = nil
	return &d
}

// propagationError renders the reason propagation aborted: the malformed
// gate if one was hit, else the assignment conflict.
func (r *Reduction) propagationError() error {
	if r.malformed != nil {
		return r.malformed
	}
	return fmt.Errorf("%w (at gate %q)", ErrConflict, r.ConflictGate)
}

// visitGate re-evaluates one gate against current knowledge, performing both
// forward evaluation and backward implication, and enqueues any nets whose
// values become known. It reads the gate from the flat topology and looks
// at the netlist only to name a gate it reports.
func (p *Propagator) visitGate(g netlist.GateID, queue []netlist.NetID) []netlist.NetID {
	r, t := &p.red, &p.topo
	gate := t.gates[g]
	if gate.kind == logic.DFF {
		return queue // constants do not cross sequential elements
	}
	pins := t.pins[gate.pin:t.gates[g+1].pin]
	in := p.inbuf[:0]
	for _, id := range pins {
		in = append(in, r.vals[id])
	}
	p.inbuf = in

	// Forward. A leniently parsed netlist can contain a gate whose arity is
	// invalid for its kind; surface it as an explicit error instead of
	// letting logic.Eval panic. The early return also shields the backward
	// implication below, which indexes pins by fixed arity.
	out, evalErr := logic.TryEval(gate.kind, in)
	if evalErr != nil {
		name := r.nl.Gate(g).Name
		r.conflict = true
		r.ConflictGate = name
		r.malformed = fmt.Errorf("%w %q: %v", ErrMalformedGate, name, evalErr)
		return queue
	}
	cur := r.vals[gate.out]
	if out.Known() {
		if cur.Known() && cur != out {
			r.conflict = true
			r.ConflictGate = r.nl.Gate(g).Name
			return queue
		}
		if !cur.Known() {
			r.set(gate.out, out)
			queue = append(queue, gate.out)
			cur = out
		}
	}

	// Backward.
	if cur.Known() {
		newly, bad := logic.ImplyInputs(gate.kind, cur, in)
		if bad {
			r.conflict = true
			r.ConflictGate = r.nl.Gate(g).Name
			return queue
		}
		if newly > 0 {
			for i, id := range pins {
				if in[i].Known() && !r.vals[id].Known() {
					r.set(id, in[i])
					queue = append(queue, id)
				}
			}
		}
	}
	return queue
}

// Value returns the inferred constant for a net (X if the net is live).
func (r *Reduction) Value(n netlist.NetID) logic.Value { return r.vals[n] }

// DirtyDistances returns, for every net lying within maxDist fanin levels
// of a net the reduction changed, the minimum number of driver (fanin)
// steps from that net down to a changed net; changed nets themselves map to
// 0. A structural subtree (net, depth) renders identically on the original
// and reduced circuits exactly when no changed net is within depth levels
// of its root, so cone.Overlay uses this map to decide which subtree keys
// can be reused from the unreduced builder's memo.
//
// The walk is a level-order BFS downstream over fanout edges, bounded to
// maxDist levels; it stops at sequential cells, whose outputs are structural
// leaves regardless of their inputs (and whose values the propagation never
// crosses either).
func (r *Reduction) DirtyDistances(maxDist int) map[netlist.NetID]int {
	dist := make(map[netlist.NetID]int, 2*len(r.trail))
	frontier := make([]netlist.NetID, 0, len(r.trail))
	for _, n := range r.trail {
		dist[n] = 0
		frontier = append(frontier, n)
	}
	var next []netlist.NetID
	for d := 1; d <= maxDist && len(frontier) > 0; d++ {
		next = next[:0]
		for _, n := range frontier {
			for _, g := range r.nl.Net(n).Fanout {
				gate := r.nl.Gate(g)
				if !gate.Kind.IsCombinational() {
					continue
				}
				if _, seen := dist[gate.Output]; seen {
					continue
				}
				dist[gate.Output] = d
				next = append(next, gate.Output)
			}
		}
		frontier, next = next, frontier
	}
	return dist
}

// DirtyDistancesIn is DirtyDistances restricted to a scope (typically the
// union of a subgroup's fanin-cone nets): seeds are the changed nets inside
// scope, and the walk never leaves it. Cost is O(|scope|) regardless of how
// far the reduction propagated — the property that makes per-trial
// incremental re-keying cheaper than re-deriving a subgroup's keys from
// scratch even when an assignment constant-folds a large region.
//
// The restriction is sound for cone.Overlay whenever scope is fanin-closed
// over the keyed subtrees (every net within cone depth of a keyed root is in
// scope): any fanin path from a keyed net to a changed net then lies wholly
// inside scope, so the restricted walk assigns the same distances the global
// walk would.
func (r *Reduction) DirtyDistancesIn(scope map[netlist.NetID]bool, maxDist int) map[netlist.NetID]int {
	dist := make(map[netlist.NetID]int)
	frontier := make([]netlist.NetID, 0, 16)
	//anlz:ignore mapdet level-order BFS: dist assigns each net its level, so the returned map is order-independent
	for n := range scope {
		if r.vals[n].Known() {
			dist[n] = 0
			frontier = append(frontier, n)
		}
	}
	var next []netlist.NetID
	for d := 1; d <= maxDist && len(frontier) > 0; d++ {
		next = next[:0]
		for _, n := range frontier {
			for _, g := range r.nl.Net(n).Fanout {
				gate := r.nl.Gate(g)
				if !gate.Kind.IsCombinational() || !scope[gate.Output] {
					continue
				}
				if _, seen := dist[gate.Output]; seen {
					continue
				}
				dist[gate.Output] = d
				next = append(next, gate.Output)
			}
		}
		frontier, next = next, frontier
	}
	return dist
}

// AssignedCount returns the number of nets with inferred constants.
func (r *Reduction) AssignedCount() int { return len(r.trail) }

// RemovedGateCount returns the number of combinational gates whose output
// became constant (and which therefore disappear from the reduced circuit).
func (r *Reduction) RemovedGateCount() int {
	c := 0
	for gi := 0; gi < r.nl.GateCount(); gi++ {
		g := r.nl.Gate(netlist.GateID(gi))
		if g.Kind != logic.DFF && r.vals[g.Output].Known() {
			c++
		}
	}
	return c
}

// --- netlist.View implementation -------------------------------------------

// NetConst implements netlist.View.
func (r *Reduction) NetConst(n netlist.NetID) (logic.Value, bool) {
	v := r.vals[n]
	return v, v.Known()
}

// DriverOf implements netlist.View: constant nets and outputs of removed
// gates have no driver in the reduced circuit.
func (r *Reduction) DriverOf(n netlist.NetID) netlist.GateID {
	if r.vals[n].Known() {
		return netlist.NoGate
	}
	return r.nl.Net(n).Driver
}

// GateKind implements netlist.View, reporting the rewritten kind (e.g. a
// NAND reduced to a single live input reports NOT).
func (r *Reduction) GateKind(g netlist.GateID) logic.Kind { return r.effective(g).kind }

// GateInputs implements netlist.View, returning only the live input pins of
// the rewritten gate.
func (r *Reduction) GateInputs(g netlist.GateID, buf []netlist.NetID) []netlist.NetID {
	return append(buf, r.effective(g).ins...)
}

// effective returns g's rewritten form, computing and caching it on first
// use.
func (r *Reduction) effective(g netlist.GateID) effGate {
	if e, ok := r.eff[g]; ok {
		return e
	}
	gate := r.nl.Gate(g)
	kind, ins, _, err := TrySimplifyGate(gate.Kind, gate.Inputs, func(n netlist.NetID) logic.Value {
		return r.vals[n]
	})
	e := effGate{kind: kind, ins: ins}
	if err != nil {
		// View methods cannot fail; a malformed gate (lenient netlist)
		// passes through unrewritten and renders as its original structure.
		e = effGate{kind: gate.Kind, ins: append([]netlist.NetID(nil), gate.Inputs...)}
	}
	if r.eff == nil {
		r.eff = make(map[netlist.GateID]effGate)
	}
	r.eff[g] = e
	return e
}

var _ netlist.View = (*Reduction)(nil)

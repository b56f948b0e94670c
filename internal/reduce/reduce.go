// Package reduce implements circuit reduction under control-signal value
// assignments (DAC'15 §2.5): assigned values are propagated forward and
// backward until fixpoint, either throughout the netlist or only through a
// region holding every net a caller reads (see Propagator.ApplyScoped); nets
// with inferred constants and gates with determined outputs are removed;
// gates left with a single live input collapse to buffers or inverters.
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
// It implements netlist.View over the simplified circuit. One returned by a
// Propagator is valid until that propagator's next apply; Detach keeps it
// longer. One returned by ApplyScoped is exact only on its region: a net
// outside it may read X where a whole-netlist apply infers a constant, so
// it must not be materialized or scanned whole.
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
	return NewPropagator(nl).Apply(assign, nil)
}

// Propagator runs many applies over one netlist on the same dense state:
// each apply first clears the nets the previous one assigned (the undo
// trail), so its cost follows the propagation rather than the netlist size,
// and its buffers are reused from apply to apply. It reads the netlist's
// own gate and net records, so a netlist grown between applies needs
// nothing rebuilt. The Reduction an apply returns shares that state. A
// Propagator is not safe for concurrent use.
type Propagator struct {
	red   Reduction
	queue []netlist.NetID
	inbuf []logic.Value
	// region marks the nets of a scoped apply's region: net n is in it when
	// region[n] == epoch. walk is the stack markRegion walks the fanin with.
	region []uint32
	epoch  uint32
	walk   []netlist.NetID
}

// NewPropagator returns a propagator over nl. Its dense state is sized on
// the first apply.
func NewPropagator(nl *netlist.Netlist) *Propagator {
	return &Propagator{red: Reduction{nl: nl}}
}

// Apply is the package-level Apply on the propagator's reused state, with
// observability: the propagation's gate-visit count and peak worklist depth
// report into rec (see internal/obs); a nil rec records nothing. Every call
// returns the same Reduction, rewritten in place, so the one returned is
// overwritten by the next call and a view of it follows the propagator.
func (p *Propagator) Apply(assign map[netlist.NetID]logic.Value, rec *obs.Recorder) (*Reduction, error) {
	return p.apply(assign, nil, true, rec)
}

// ApplyScoped is Apply restricted to a region R: the combinational
// transitive fanin of roots and of the assigned nets, stopping at
// flip-flops and primary inputs. Only gates whose output lies in R are
// visited. The error, and on a feasible apply the value of every net in R,
// equal Apply's: a gate outside R can neither set a value in R (R holds
// each of its nets' drivers and their inputs) nor conflict (backward
// implications start at assigned nets and stay in their fanin), and a
// whole-netlist apply visits the gates of R in the same order. That
// argument needs every gate to be evaluable and its output's only driver,
// so on an Irregular netlist R is every net. The Reduction is exact only
// on R; see Reduction.
func (p *Propagator) ApplyScoped(assign map[netlist.NetID]logic.Value, roots []netlist.NetID, rec *obs.Recorder) (*Reduction, error) {
	return p.apply(assign, roots, p.red.nl.Irregular(), rec)
}

// apply runs the one fixpoint loop: over every gate when whole is set,
// else over the gates whose output lies in the region of roots and the
// assigned nets.
func (p *Propagator) apply(assign map[netlist.NetID]logic.Value, roots []netlist.NetID, whole bool, rec *obs.Recorder) (*Reduction, error) {
	r := &p.red
	nl := r.nl
	r.reset()
	if n := nl.NetCount(); len(r.vals) < n {
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
	if !whole {
		p.markRegion(roots, queue)
	}
	for _, n := range queue {
		v := assign[n]
		if !v.Known() {
			p.queue = queue
			return nil, fmt.Errorf("reduce: assignment of X to net %q", nl.NetName(n))
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
		net := nl.Net(n)

		// Forward: every fanout gate may now have a determined output, and
		// a newly known output may backward-imply sibling inputs.
		for _, g := range net.Fanout {
			if !whole && p.region[nl.Gate(g).Output] != p.epoch {
				continue
			}
			visits++
			queue = p.visitGate(g, queue)
			if r.conflict {
				break
			}
		}
		// Backward: the driver of n now has a known output. Every net on
		// the queue is in the region, so its driver's output is too.
		if d := net.Driver; !r.conflict && d != netlist.NoGate {
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

// markRegion stamps the region of a scoped apply with a fresh epoch: every
// net reached from roots and the assigned nets by walking back through
// drivers, where a flip-flop's output is reached but not its input.
func (p *Propagator) markRegion(roots, assigned []netlist.NetID) {
	nl := p.red.nl
	if n := nl.NetCount(); len(p.region) < n {
		p.region = append(p.region, make([]uint32, n-len(p.region))...)
	}
	p.epoch++
	if p.epoch == 0 {
		clear(p.region)
		p.epoch = 1
	}
	walk := append(append(p.walk[:0], roots...), assigned...)
	for len(walk) > 0 {
		n := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		if p.region[n] == p.epoch {
			continue
		}
		p.region[n] = p.epoch
		if d := nl.Net(n).Driver; d != netlist.NoGate {
			if g := nl.Gate(d); g.Kind != logic.DFF {
				walk = append(walk, g.Inputs...)
			}
		}
	}
	p.walk = walk
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
// values become known.
func (p *Propagator) visitGate(g netlist.GateID, queue []netlist.NetID) []netlist.NetID {
	r := &p.red
	gate := r.nl.Gate(g)
	if gate.Kind == logic.DFF {
		return queue // constants do not cross sequential elements
	}
	in := p.inbuf[:0]
	for _, id := range gate.Inputs {
		in = append(in, r.vals[id])
	}
	p.inbuf = in

	// Forward. A leniently parsed netlist can contain a gate whose arity is
	// invalid for its kind; surface it as an explicit error instead of
	// letting logic.Eval panic. The early return also shields the backward
	// implication below, which indexes pins by fixed arity.
	out, evalErr := logic.TryEval(gate.Kind, in)
	if evalErr != nil {
		r.conflict = true
		r.ConflictGate = gate.Name
		r.malformed = fmt.Errorf("%w %q: %v", ErrMalformedGate, gate.Name, evalErr)
		return queue
	}
	cur := r.vals[gate.Output]
	if out.Known() {
		if cur.Known() && cur != out {
			r.conflict = true
			r.ConflictGate = gate.Name
			return queue
		}
		if !cur.Known() {
			r.set(gate.Output, out)
			queue = append(queue, gate.Output)
			cur = out
		}
	}

	// Backward.
	if cur.Known() {
		newly, bad := logic.ImplyInputs(gate.Kind, cur, in)
		if bad {
			r.conflict = true
			r.ConflictGate = gate.Name
			return queue
		}
		if newly > 0 {
			for i, id := range gate.Inputs {
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

// --- netlist.View implementation -------------------------------------------

// NetCount returns the net count of the reduced netlist, which
// cone.NewBuilder reads to size its memo rows.
func (r *Reduction) NetCount() int { return r.nl.NetCount() }

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

// effective returns g's rewritten form. A gate with no constant input is
// its own rewritten form and is returned as is, without a cache entry: a
// view keying the reduced circuit queries many gates the reduction did not
// touch. Any other gate is rewritten on first use and cached.
func (r *Reduction) effective(g netlist.GateID) effGate {
	gate := r.nl.Gate(g)
	if !slices.ContainsFunc(gate.Inputs, func(n netlist.NetID) bool { return r.vals[n].Known() }) {
		return effGate{kind: gate.Kind, ins: gate.Inputs}
	}
	if e, ok := r.eff[g]; ok {
		return e
	}
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

package core

import (
	"slices"

	"gatewords/internal/cone"
	"gatewords/internal/ctrlsig"
	"gatewords/internal/group"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/reduce"
)

// EachTrial calls fn once for each assignment trial the pipeline can run on
// nl under opt: in every adjacency group, for every subgroup as
// processGroup forms it, every assignment forEachAssignment enumerates over
// the control signals ctrlsig.Find returns for it — all of them, not only
// those runTrials reaches before a winning trial or a budget stops it. fn
// gets the trial's bit nets and assignment, and propagate, which propagates
// the trial as tryAssignment does, on the worker's reused propagator.
func EachTrial(nl *netlist.Netlist, opt Options, fn func(bits []netlist.NetID, assign map[netlist.NetID]logic.Value, propagate func() (*reduce.Reduction, error))) {
	opt = opt.withDefaults()
	p := newPipeline(nl, opt, nil)
	for _, nets := range group.Adjacent(nl, group.Options{DFFInputsOnly: opt.DFFInputsOnly}) {
		p.formSubgroups(nets)
		for _, r := range p.subgroups {
			bits := p.bits[r.lo:r.hi]
			if len(bits) < 2 {
				continue
			}
			common := cone.CommonKeys(bits)
			dissim := make([][]cone.Subtree, len(bits))
			for i, bc := range bits {
				dissim[i] = cone.Dissimilar(bc, common)
			}
			signals := ctrlsig.Find(nl, dissim, opt.Depth-1)
			if len(signals) > maxControlSignals {
				signals = signals[:maxControlSignals]
			}
			p.forEachAssignment(signals, func(assign map[netlist.NetID]logic.Value) bool {
				fn(slices.Clone(nets[r.lo:r.hi]), assign, func() (*reduce.Reduction, error) { return p.propagate(bits, assign) })
				return true
			})
		}
	}
}

// FaninRegion returns, by NetID, the region a trial's propagation is exact
// on: the combinational transitive fanin of roots and of the assigned nets,
// stopping at flip-flops and primary inputs. It walks the netlist itself,
// sharing no code with the propagator.
func FaninRegion(nl *netlist.Netlist, roots []netlist.NetID, assign map[netlist.NetID]logic.Value) []bool {
	in := make([]bool, nl.NetCount())
	stack := append([]netlist.NetID(nil), roots...)
	for n := range assign {
		stack = append(stack, n)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[n] {
			continue
		}
		in[n] = true
		if d := nl.Net(n).Driver; d != netlist.NoGate && nl.Gate(d).Kind.IsCombinational() {
			stack = append(stack, nl.Gate(d).Inputs...)
		}
	}
	return in
}

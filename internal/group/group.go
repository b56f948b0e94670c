// Package group implements the first-level grouping of potential word bits
// (DAC'15 §2.2): a single pass over the netlist in file order, grouping the
// output nets of consecutive gate lines whose fanin-cone roots have the same
// gate type. The pass is O(N) in the number of nets; cross-checking between
// adjacent groups is deliberately out of scope (the paper leaves it to
// future work), which the tests pin down.
package group

import (
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Options tunes candidate selection.
type Options struct {
	// DFFInputsOnly restricts candidate bits to nets that feed flip-flop D
	// pins. The paper groups every net line; reference words are always FF
	// input nets, so this is a cheap precision/recall trade-off exposed for
	// ablation. Default false (paper behavior).
	DFFInputsOnly bool
}

// Adjacent returns groups of potential word bits. Each group is a maximal
// run of consecutive gate lines whose root gate types are equal, where the
// gate type includes the input count — the paper's example groups nets whose
// roots are all "3-input NAND gates", so a 2-input NAND line breaks the run.
// Flip-flop lines are not candidates themselves (a word bit is the net
// feeding the register, whose cone is combinational) and they break runs.
//
// The groups are cut, capacity-limited, from one array of every candidate
// net in file order: a first pass counts the candidates and the runs, a
// second fills them.
func Adjacent(nl *netlist.Netlist, opt Options) [][]netlist.NetID {
	feedsDFF := map[netlist.NetID]bool{}
	if opt.DFFInputsOnly {
		for _, g := range nl.DFFs() {
			for _, in := range nl.Gate(g).Inputs {
				feedsDFF[in] = true
			}
		}
	}
	type rootType struct {
		kind  logic.Kind
		arity int
	}
	// each calls fn for every candidate line in file order, with whether
	// it starts a run.
	each := func(fn func(out netlist.NetID, starts bool)) {
		prev := rootType{kind: logic.Invalid}
		for gi := 0; gi < nl.GateCount(); gi++ {
			g := nl.Gate(netlist.GateID(gi))
			if !g.Kind.IsCombinational() || opt.DFFInputsOnly && !feedsDFF[g.Output] {
				prev = rootType{kind: logic.Invalid}
				continue
			}
			cur := rootType{kind: g.Kind, arity: len(g.Inputs)}
			fn(g.Output, cur != prev)
			prev = cur
		}
	}
	nets, runs := 0, 0
	each(func(_ netlist.NetID, starts bool) {
		nets++
		if starts {
			runs++
		}
	})
	all := make([]netlist.NetID, 0, nets)
	groups := make([][]netlist.NetID, 0, runs)
	start := 0
	flush := func() {
		if len(all) > start {
			groups = append(groups, all[start:len(all):len(all)])
			start = len(all)
		}
	}
	each(func(out netlist.NetID, starts bool) {
		if starts {
			flush()
		}
		all = append(all, out)
	})
	flush()
	return groups
}

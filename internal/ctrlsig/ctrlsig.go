// Package ctrlsig identifies the relevant control signals of a potential
// word (DAC'15 §2.4). Given the dissimilar subtrees recorded for the bits
// of a subgroup, the relevant control signals are the nets common to every
// dissimilar subtree, minus any net lying in the fanin cone of another
// common net (whose reduction effect it would duplicate). Signals appearing
// only in matching subtrees are never candidates: they cannot create new
// structural similarity.
package ctrlsig

import (
	"sort"

	"gatewords/internal/cone"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Signal is one relevant control signal with its feasible assignment values
// (§2.5: the controlling value of a gate the signal feeds; both values when
// it feeds only gates without a controlling value).
type Signal struct {
	Net    netlist.NetID
	Values []logic.Value
}

// Find computes the relevant control signals for a subgroup. dissim holds,
// per bit, the dissimilar subtrees recorded during partial matching;
// subDepth is the subtree expansion depth (cone depth - 1). nl must be the
// netlist the subtrees were matched on.
func Find(nl *netlist.Netlist, dissim [][]cone.Subtree, subDepth int) []Signal {
	// region counts, per net, the dissimilar subtrees whose nets hold it: its
	// keys are their union, and the nets common to all of them are those
	// every subtree counted.
	region := make(map[netlist.NetID]int)
	var c netlist.Cone
	subtrees, first := 0, netlist.NoNet
	for _, sts := range dissim {
		for _, st := range sts {
			if subtrees == 0 {
				first = st.Root
			}
			subtrees++
			for _, cn := range c.Walk(nl, st.Root, subDepth) {
				region[cn.Net]++
			}
		}
	}
	if subtrees < 2 {
		// With fewer than two dissimilar subtrees there is no "common among
		// all" evidence; the only defensible candidate is the root of the
		// single extra subtree, if any.
		if subtrees == 1 {
			return []Signal{makeSignal(nl, first, region)}
		}
		return nil
	}

	// Common nets across every dissimilar subtree.
	var common []netlist.NetID
	for n, k := range region {
		if k == subtrees {
			common = append(common, n)
		}
	}
	if len(common) == 0 {
		return nil
	}
	// common is collected in map order; canonicalize before the dominance
	// walk so everything downstream of it is order-independent by
	// construction, not just after the final sort of out.
	sort.Slice(common, func(i, j int) bool { return common[i] < common[j] })

	// Prune dominated nets: drop any common net reachable through drivers
	// from another common net within the dissimilar region (§2.4: U223 is
	// in the fanin cone of U201, so U223 goes).
	dominated := make(map[netlist.NetID]bool)
	for _, src := range common {
		markFaninWithin(nl, src, region, dominated)
	}
	var out []Signal
	for _, n := range common {
		if dominated[n] {
			continue
		}
		out = append(out, makeSignal(nl, n, region))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Net < out[j].Net })
	return out
}

// markFaninWithin marks every net strictly inside the fanin cone of src,
// bounded to the region (the union of dissimilar-subtree nets), as
// dominated by src.
func markFaninWithin(nl *netlist.Netlist, src netlist.NetID, region map[netlist.NetID]int, dominated map[netlist.NetID]bool) {
	var walk func(n netlist.NetID)
	seen := map[netlist.NetID]bool{src: true}
	walk = func(n netlist.NetID) {
		d := nl.Net(n).Driver
		if d == netlist.NoGate {
			return
		}
		g := nl.Gate(d)
		if !g.Kind.IsCombinational() {
			return
		}
		for _, in := range g.Inputs {
			if seen[in] || region[in] == 0 {
				continue
			}
			seen[in] = true
			dominated[in] = true
			walk(in)
		}
	}
	walk(src)
	return
}

// makeSignal derives the feasible assignment values for a control net: the
// controlling values of the gates it feeds inside the dissimilar region.
// When the net feeds only gates without a controlling value (parity gates,
// muxes), both values are feasible.
func makeSignal(nl *netlist.Netlist, n netlist.NetID, region map[netlist.NetID]int) Signal {
	s := Signal{Net: n}
	have := map[logic.Value]bool{}
	addFrom := func(restrict bool) {
		for _, g := range nl.Net(n).Fanout {
			gate := nl.Gate(g)
			if restrict && region[gate.Output] == 0 {
				continue
			}
			if cv, ok := gate.Kind.ControllingValue(); ok {
				have[cv] = true
			}
		}
	}
	addFrom(true)
	if len(have) == 0 {
		addFrom(false)
	}
	if len(have) == 0 {
		have[logic.Zero] = true
		have[logic.One] = true
	}
	// Deterministic order: 0 before 1.
	if have[logic.Zero] {
		s.Values = append(s.Values, logic.Zero)
	}
	if have[logic.One] {
		s.Values = append(s.Values, logic.One)
	}
	return s
}

// Package shapehash implements the baseline word-identification technique
// that DAC'15 Table 1 calls "Base": the shape-hashing matcher in the style
// of WordRev (Li et al., HOST'13). It shares the adjacency grouping and
// hash-key machinery with the control-signal technique — cones keyed as
// hash-consed (gate kind, sorted child key) tuples, so whole-cone equality
// is a single integer compare — but considers only the un-simplified
// netlist structure and groups only bits whose fanin cones match fully.
package shapehash

import (
	"gatewords/internal/cone"
	"gatewords/internal/group"
	"gatewords/internal/netlist"
)

// Result holds the generated word set of the baseline.
type Result struct {
	Words  [][]netlist.NetID
	Groups int // first-level adjacency groups visited
	Bits   int // candidate bits with analyzable cones
}

// Identify runs shape hashing on nl with the given fanin-cone depth
// (cone.DefaultDepth when depth <= 0). Every word is a run of consecutive
// nets of one adjacency group, so it is cut, capacity-limited, from the
// group's storage.
func Identify(nl *netlist.Netlist, depth int) *Result {
	groups := group.Adjacent(nl, group.Options{})
	it := cone.NewInterner()
	b := cone.NewBuilder(nl, it, depth)
	nets := 0
	for _, g := range groups {
		nets += len(g)
	}
	res := &Result{Groups: len(groups), Words: make([][]netlist.NetID, 0, nets)}
	for _, g := range groups {
		var prev *cone.BitCone
		start := 0
		flush := func(end int) {
			if end > start {
				res.Words = append(res.Words, g[start:end:end])
			}
		}
		for i, net := range g {
			bc := b.Bit(net)
			if bc == nil {
				flush(i)
				start = i + 1
				prev = nil
				continue
			}
			res.Bits++
			if prev != nil && !cone.FullMatch(prev, bc) {
				flush(i)
				start = i
			}
			prev = bc
		}
		flush(len(g))
	}
	return res
}

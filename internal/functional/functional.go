// Package functional implements functional word identification, the class
// of techniques the paper positions as complementary to structural matching
// (§1: "functional techniques usually require some structural processing
// such as finding and enumerating cuts of certain size ... they may be
// applied after words are identified using a structural technique").
//
// Each candidate bit's depth-limited fanin cone is treated as a cut: the
// cone's leaves are its support (capped at MaxSupport inputs), and the
// bit's function is the truth table of the cone over that support. Truth
// tables are put into an NPN-lite canonical form — output phase
// normalization plus an influence-signature input ordering — so two bits
// match when they compute the same function even through different gate
// decompositions (a MUX2 cell vs. its four-NAND form, for example), which
// purely structural hashing cannot see. Grouping then follows the same
// netlist-adjacency discipline as the structural techniques.
package functional

import (
	"slices"
	"sort"
	"strconv"

	"gatewords/internal/aig"
	"gatewords/internal/cone"
	"gatewords/internal/group"
	"gatewords/internal/netlist"
)

// Options configures the matcher.
type Options struct {
	// Depth bounds the cone (levels of logic, default 4, like the
	// structural matcher).
	Depth int
	// MaxSupport skips bits whose cone has more leaves than this
	// (default 8: truth tables stay <= 256 minterms).
	MaxSupport int
}

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = 4
	}
	if o.MaxSupport <= 0 {
		o.MaxSupport = 8
	}
	if o.MaxSupport > 16 {
		o.MaxSupport = 16
	}
	return o
}

// Result is the functional matcher's output.
type Result struct {
	Words [][]netlist.NetID
	// Skipped counts candidate bits whose support exceeded MaxSupport.
	Skipped int
}

// Identify groups bits whose cones compute the same canonical function,
// within the usual adjacency groups.
func Identify(nl *netlist.Netlist, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	groups := group.Adjacent(nl, group.Options{})
	for _, g := range groups {
		var run []netlist.NetID
		var prev string
		flush := func() {
			if len(run) > 0 {
				res.Words = append(res.Words, run)
				run = nil
			}
			prev = ""
		}
		for _, net := range g {
			key, ok := CanonicalFunction(nl, net, opt.Depth, opt.MaxSupport)
			if !ok {
				res.Skipped++
				flush()
				continue
			}
			if prev != "" && key != prev {
				flush()
			}
			run = append(run, net)
			prev = key
		}
		flush()
	}
	return res
}

// CanonicalFunction computes the canonical truth-table key of a bit's cone,
// or ok=false when the bit has no combinational cone, its support is too
// large, or the cone cannot be lowered (a cycle or a malformed gate).
//
// The cone is the bit's depth-limited fanin cone (netlist.Cone): its leaves,
// in NetID order, are the support, leaf i being bit i of a minterm. A leaf
// the view knows constant still counts toward the support, as a variable
// the function does not read.
func CanonicalFunction(v netlist.View, net netlist.NetID, depth, maxSupport int) (string, bool) {
	if _, _, ok := cone.RootGate(v, net); !ok {
		return "", false
	}
	var c netlist.Cone
	var leaves []netlist.NetID
	for _, cn := range c.Walk(v, net, depth) {
		if !cn.Expanded {
			leaves = append(leaves, cn.Net)
		}
	}
	if len(leaves) > maxSupport {
		return "", false
	}
	slices.Sort(leaves)
	g := aig.New()
	cl := aig.NewConeLowerer(g, func(n netlist.NetID) string { return strconv.Itoa(int(n)) })
	for _, leaf := range leaves {
		cl.VarFor(leaf) // input i of g is leaf i
	}
	root, err := cl.LowerCut(v, net, &c)
	if err != nil {
		return "", false
	}
	tt := canonicalize(truthTable(g, root, len(leaves)), len(leaves))
	return string(tt) + ":" + string(rune('0'+len(leaves))), true
}

// laneBits[i] holds, in lane j, bit i of j: the first six inputs' values
// across 64 consecutive minterms.
var laneBits = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// truthTable evaluates root over g's k inputs, 64 minterms per simulation
// pass, and returns the packed table: bit m is the output under minterm m,
// in which input i takes bit i of m. For k < 3 the byte's bits past 2^k
// hold further simulation lanes; canonicalize reads only the first 2^k.
func truthTable(g *aig.AIG, root aig.Lit, k int) []byte {
	size := 1 << uint(k)
	tt := make([]byte, (size+7)/8)
	in := make([]uint64, k)
	var vals []uint64
	for base := 0; base < size; base += 64 {
		for i := range in {
			switch {
			case i < len(laneBits):
				in[i] = laneBits[i]
			case base>>uint(i)&1 == 1:
				in[i] = ^uint64(0)
			default:
				in[i] = 0
			}
		}
		vals = g.Sim64(in, vals)
		w := aig.Word(vals, root)
		for b := base / 8; b < len(tt) && b < base/8+8; b++ {
			tt[b] = byte(w >> uint(8*(b-base/8)))
		}
	}
	return tt
}

// canonicalize puts a truth table into NPN-lite canonical form: the output
// phase is normalized so that f(0,...,0) = 0, and inputs are reordered by a
// function-derived signature (influence, then cofactor weight), which makes
// the key invariant under input renaming whenever signatures are distinct.
// Symmetric inputs are already interchangeable, so ties are harmless there;
// genuinely ambiguous ties can make equal functions miss each other, which
// is conservative (no false matches).
func canonicalize(tt []byte, k int) []byte {
	size := 1 << uint(k)
	get := func(t []byte, m int) bool { return t[m/8]>>uint(m%8)&1 == 1 }
	set := func(t []byte, m int) { t[m/8] |= 1 << uint(m%8) }

	// Output phase.
	if get(tt, 0) {
		inv := make([]byte, len(tt))
		for m := 0; m < size; m++ {
			if !get(tt, m) {
				set(inv, m)
			}
		}
		tt = inv
	}

	// Input signatures.
	type sig struct {
		idx       int
		influence int
		cofOnes   int
	}
	sigs := make([]sig, k)
	for i := 0; i < k; i++ {
		s := sig{idx: i}
		bit := 1 << uint(i)
		for m := 0; m < size; m++ {
			if m&bit != 0 {
				if get(tt, m) {
					s.cofOnes++
				}
				continue
			}
			if get(tt, m) != get(tt, m|bit) {
				s.influence++
			}
		}
		sigs[i] = s
	}
	sort.Slice(sigs, func(a, b int) bool {
		if sigs[a].influence != sigs[b].influence {
			return sigs[a].influence > sigs[b].influence
		}
		if sigs[a].cofOnes != sigs[b].cofOnes {
			return sigs[a].cofOnes > sigs[b].cofOnes
		}
		return sigs[a].idx < sigs[b].idx
	})

	// Apply the permutation: new input j reads old input sigs[j].idx.
	out := make([]byte, len(tt))
	for m := 0; m < size; m++ {
		old := 0
		for j := 0; j < k; j++ {
			if m>>uint(j)&1 == 1 {
				old |= 1 << uint(sigs[j].idx)
			}
		}
		if get(tt, old) {
			set(out, m)
		}
	}
	return out
}

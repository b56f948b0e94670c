// Package cone implements depth-limited fanin-cone analysis: extraction of a
// candidate bit's cone, decomposition into second-level subtrees, post-order
// structural hash keys over gate kinds with order-insensitive fanins
// (DAC'15 §2.3), and the O(k_i+k_j) two-pointer comparison of sorted
// hash-key lists that classifies subtree pairs as similar or dissimilar.
//
// Keys are hash-consed: each key is an interned (gate kind, sorted child-key
// tuple) record, so computing a node's key is O(fanin) and comparing keys is
// an integer compare. The Polish-expression string form of a key exists only
// as a lazy debug rendering (Interner.String).
//
// Everything here is written against netlist.View, so the same machinery
// analyzes both the original circuit and a constant-propagated reduced
// circuit produced by internal/reduce.
package cone

import (
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// kindToken returns the single-character token used when rendering a key as
// a Polish expression. Only the gate type is recorded, per the paper.
func kindToken(k logic.Kind) byte {
	switch k {
	case logic.And:
		return 'A'
	case logic.Or:
		return 'O'
	case logic.Nand:
		return 'N'
	case logic.Nor:
		return 'R'
	case logic.Xor:
		return 'X'
	case logic.Xnor:
		return 'E'
	case logic.Not:
		return 'I'
	case logic.Buf:
		return 'B'
	case logic.Mux2:
		return 'M'
	case logic.Aoi21:
		return 'P'
	case logic.Oai21:
		return 'Q'
	case logic.DFF:
		return 'D'
	}
	return '?'
}

// leafToken marks a cone leaf in the rendered key: a primary input, a
// flip-flop boundary, a constant, or the depth cut. Leaves record no
// identity, only that the branch ends, keeping the match purely structural.
const leafToken = "."

// Subtree is one second-level subtree of a bit's fanin cone: the subtree
// rooted at one input net of the bit's root gate.
type Subtree struct {
	Root netlist.NetID // net at the subtree root
	Key  KeyID
}

// BitCone is the analyzed fanin cone of one candidate word bit.
type BitCone struct {
	Net      netlist.NetID  // the candidate bit (a driven net)
	RootGate netlist.GateID // gate driving Net (under the view)
	RootKind logic.Kind     // effective kind of RootGate
	Subtrees []Subtree      // second-level subtrees, sorted by Key
	FullKey  KeyID          // key of the entire cone including the root
}

// Builder computes cones and hash keys against one netlist.View. It
// memoizes subtree keys per (net, depth), which is what makes whole-design
// analysis linear in practice despite tree unfolding. A view that changes
// in place, such as the Reduction a reduce.Propagator rewrites on every
// apply, is keyed anew after a Reset.
//
// The memo is dense: memo[d-1][net] holds the key of subtree (net, d) plus
// one, 0 meaning not yet computed. A row exists only for depths a walk has
// reached and grows to the highest NetID keyed at that depth. Once the
// builder has been reset, trail lists the entries set since the last Reset,
// which clears exactly those; the first Reset clears the rows whole, so a
// builder that is never reset records no trail.
//
// Bit hands out BitCones and their Subtrees from builder-owned chunks, which
// Reset recycles: a builder keying group after group allocates no cone
// storage once its chunks cover the largest group.
type Builder struct {
	view    netlist.View
	intern  *Interner
	depth   int
	memo    [][]KeyID
	trail   []memoKey
	tracked bool // Reset has run: subtreeKey records the trail
	rowLen  int  // a new row's length: the view's net count, when it has one
	inbuf   []netlist.NetID
	idbuf   []KeyID
	frames  []keyFrame
	cones   chunks[BitCone]
	subs    chunks[Subtree]
}

// Chunk sizes of a builder's cone storage: BitCones, and Subtrees (a
// chunk holds one cone's subtrees whole, so a wider root gets a chunk of
// its own size).
const (
	coneChunk    = 256
	subtreeChunk = 1024
)

// chunks is append-only storage handed out in place: a slice taken from it
// stays valid, and is never written again, until rewind. Full chunks are
// kept, so a rewound store refills them before it allocates.
type chunks[T any] struct {
	all  [][]T
	cur  int // index in all of the chunk being filled
	size int // length of a new chunk
}

// take returns n elements for the caller to fill, cut with their capacity
// limited to n so that an append to them never reaches a neighbour.
func (c *chunks[T]) take(n int) []T {
	for c.cur < len(c.all) && cap(c.all[c.cur])-len(c.all[c.cur]) < n {
		c.cur++
	}
	if c.cur == len(c.all) {
		c.all = append(c.all, make([]T, 0, max(n, c.size)))
	}
	lo := len(c.all[c.cur])
	c.all[c.cur] = c.all[c.cur][:lo+n]
	return c.all[c.cur][lo : lo+n : lo+n]
}

// rewind makes every chunk free again.
func (c *chunks[T]) rewind() {
	for i := range c.all {
		c.all[i] = c.all[i][:0]
	}
	c.cur = 0
}

// memoKey identifies one (net, remaining depth) subtree. Depth is stored
// full-width: a narrow field would silently alias memo entries across
// depths for deep cones (the old int8 field wrapped above 127).
type memoKey struct {
	net   netlist.NetID
	depth int32
}

// keyFrame is per-recursion-level scratch for key computation, so walking a
// cone allocates nothing once the builder is warm.
type keyFrame struct {
	nets []netlist.NetID
	ids  []KeyID
}

// DefaultDepth is the fanin-cone depth used throughout the paper: similarity
// beyond 2–4 levels of logic is destroyed by optimization, so 4 levels is
// the default analysis window.
const DefaultDepth = 4

// MaxDepth caps the cone depth. Depths anywhere near it are useless for
// similarity matching (the paper argues 2–4 levels); the cap bounds
// recursion and scratch sizing. NewBuilder clamps to it.
const MaxDepth = 4096

// NewBuilder returns a Builder over view with the given cone depth (total
// levels of logic including the root gate). Out-of-range depths are
// clamped: depth < 1 selects DefaultDepth, depth > MaxDepth selects
// MaxDepth. KeyIDs compare only within one Interner: builders whose keys
// are compared with each other must share theirs.
func NewBuilder(view netlist.View, intern *Interner, depth int) *Builder {
	if depth < 1 {
		depth = DefaultDepth
	}
	if depth > MaxDepth {
		depth = MaxDepth
	}
	b := &Builder{view: view, intern: intern, depth: depth,
		cones: chunks[BitCone]{size: coneChunk}, subs: chunks[Subtree]{size: subtreeChunk}}
	if nc, ok := view.(interface{ NetCount() int }); ok {
		b.rowLen = nc.NetCount()
	}
	return b
}

// Reset readies the builder for the next analysis over its view, which may
// have changed since: it forgets every key made since the last reset and
// resets its Interner, so it then hands out exactly the keys and KeyIDs a
// fresh NewBuilder(view, NewInterner(), depth) would. It costs O(keys made),
// the first reset O(memo size), and keeps the memo rows, the interner's
// probe table, the cone storage and all scratch.
//
// Reset invalidates every KeyID and BitCone handed out before it, by this
// builder or by another builder sharing its Interner.
func (b *Builder) Reset() {
	if b.tracked {
		for _, mk := range b.trail {
			b.memo[mk.depth-1][mk.net] = 0
		}
	} else {
		for _, row := range b.memo {
			clear(row)
		}
		b.tracked = true
	}
	b.trail = b.trail[:0]
	b.cones.rewind()
	b.subs.rewind()
	b.intern.Reset()
}

// Depth returns the configured cone depth.
func (b *Builder) Depth() int { return b.depth }

// Interner returns the builder's key interner.
func (b *Builder) Interner() *Interner { return b.intern }

// RootGate returns the combinational gate driving net under view and its
// effective kind; ok is false when net has no cone (primary inputs, FF
// outputs and simplified-away nets). It is the check Bit makes before
// keying anything, for callers that need only the verdict.
func RootGate(view netlist.View, net netlist.NetID) (g netlist.GateID, kind logic.Kind, ok bool) {
	if _, isConst := view.NetConst(net); isConst {
		return netlist.NoGate, kind, false
	}
	g = view.DriverOf(net)
	if g == netlist.NoGate {
		return g, kind, false
	}
	kind = view.GateKind(g)
	return g, kind, kind.IsCombinational()
}

// Bit analyzes the fanin cone of net. It returns nil if the net has no
// driving combinational gate under the view (see RootGate).
func (b *Builder) Bit(net netlist.NetID) *BitCone {
	g, kind, ok := RootGate(b.view, net)
	if !ok {
		return nil
	}
	b.inbuf = b.view.GateInputs(g, b.inbuf[:0])
	bc := &b.cones.take(1)[0]
	*bc = BitCone{Net: net, RootGate: g, RootKind: kind, Subtrees: b.subs.take(len(b.inbuf))}
	for i, in := range b.inbuf {
		bc.Subtrees[i] = Subtree{Root: in, Key: b.SubtreeKey(in, b.depth-1)}
	}
	sortSubtrees(bc.Subtrees)
	b.idbuf = b.idbuf[:0]
	for _, st := range bc.Subtrees {
		b.idbuf = append(b.idbuf, st.Key)
	}
	// The full-cone key is the root kind over its sorted child keys.
	bc.FullKey = b.intern.InternNode(kind, b.idbuf)
	return bc
}

// sortSubtrees orders a (small) subtree list by key. Insertion sort avoids
// the sort.Slice closure allocation on the per-bit hot path.
func sortSubtrees(sts []Subtree) {
	for i := 1; i < len(sts); i++ {
		for j := i; j > 0 && sts[j].Key < sts[j-1].Key; j-- {
			sts[j], sts[j-1] = sts[j-1], sts[j]
		}
	}
}

// SubtreeKey returns the interned post-order key for the subtree rooted at
// net, expanded for depth more levels of logic. Depth 0, primary inputs,
// flip-flop boundaries and constants all yield LeafKey.
func (b *Builder) SubtreeKey(net netlist.NetID, depth int) KeyID {
	return b.subtreeKey(net, depth, 0)
}

func (b *Builder) subtreeKey(net netlist.NetID, depth, level int) KeyID {
	if depth <= 0 {
		return LeafKey
	}
	for len(b.memo) < depth {
		b.memo = append(b.memo, nil)
	}
	if row := b.memo[depth-1]; int(net) < len(row) && row[net] != 0 {
		return row[net] - 1
	}
	id := LeafKey
	if _, isConst := b.view.NetConst(net); !isConst {
		if g := b.view.DriverOf(net); g != netlist.NoGate {
			if kind := b.view.GateKind(g); kind.IsCombinational() {
				for len(b.frames) <= level {
					b.frames = append(b.frames, keyFrame{})
				}
				// Index b.frames each access (never hold a pointer):
				// deeper recursion may grow the slice.
				b.frames[level].nets = b.view.GateInputs(g, b.frames[level].nets[:0])
				b.frames[level].ids = b.frames[level].ids[:0]
				for i := 0; i < len(b.frames[level].nets); i++ {
					k := b.subtreeKey(b.frames[level].nets[i], depth-1, level+1)
					b.frames[level].ids = append(b.frames[level].ids, k)
				}
				id = b.intern.InternNode(kind, b.frames[level].ids)
			}
		}
	}
	row := b.memo[depth-1]
	if int(net) >= len(row) {
		row = append(row, make([]KeyID, max(int(net)+1, b.rowLen)-len(row))...)
		b.memo[depth-1] = row
	}
	row[net] = id + 1
	if b.tracked {
		b.trail = append(b.trail, memoKey{net: net, depth: int32(depth)})
	}
	return id
}

package cone

import "gatewords/internal/netlist"

// Overlay computes cones and keys against a modified view of a base
// builder's circuit — typically a constant-propagated reduction — reusing
// the base builder's memoized keys for every subtree the modification
// cannot reach. It is the incremental path of the assignment-trial loop
// (§2.5): per trial, only the nets inside the reduced region are re-keyed
// instead of re-deriving every key under a fresh Builder.
//
// dist gives, for each net within reach of the modification, the minimum
// number of driver (fanin) steps from that net down to a changed net
// (reduce.Reduction.DirtyDistances computes it). The subtree (net, depth)
// renders identically under both views exactly when no changed net lies
// within depth levels of its root — i.e. when dist[net] > depth — because a
// changed net at distance d <= depth alters the expansion: at d < depth it
// changes which gates unfold, and at d == depth it rewrites the effective
// kind and surviving pins of a gate on the expansion frontier. Nets absent
// from dist are out of reach and always delegate to the base memo.
//
// An Overlay interns into the base builder's Interner, so its KeyIDs are
// directly comparable with base keys.
type Overlay struct {
	base   *Builder
	view   netlist.View
	dist   map[netlist.NetID]int
	memo   map[memoKey]KeyID
	inbuf  []netlist.NetID
	idbuf  []KeyID
	frames []keyFrame
}

// Overlay returns an incremental key builder over view. Reset repoints an
// existing Overlay at the next trial's view without reallocating scratch.
func (b *Builder) Overlay(view netlist.View, dist map[netlist.NetID]int) *Overlay {
	return &Overlay{base: b, view: view, dist: dist, memo: make(map[memoKey]KeyID)}
}

// Reset repoints the overlay at a new view/dist pair (the next assignment
// trial), retaining scratch buffers and the memo map's capacity.
func (o *Overlay) Reset(view netlist.View, dist map[netlist.NetID]int) {
	o.view = view
	o.dist = dist
	clear(o.memo)
}

// Bit analyzes the fanin cone of net under the overlay view, exactly as
// Builder.Bit does under the base view.
func (o *Overlay) Bit(net netlist.NetID) *BitCone {
	g, kind, ok := RootGate(o.view, net)
	if !ok {
		return nil
	}
	o.inbuf = o.view.GateInputs(g, o.inbuf[:0])
	bc := &BitCone{Net: net, RootGate: g, RootKind: kind}
	bc.Subtrees = make([]Subtree, 0, len(o.inbuf))
	for _, in := range o.inbuf {
		bc.Subtrees = append(bc.Subtrees, Subtree{Root: in, Key: o.SubtreeKey(in, o.base.depth-1)})
	}
	sortSubtrees(bc.Subtrees)
	o.idbuf = o.idbuf[:0]
	for _, st := range bc.Subtrees {
		o.idbuf = append(o.idbuf, st.Key)
	}
	bc.FullKey = o.base.intern.InternNode(kind, o.idbuf)
	return bc
}

// SubtreeKey returns the key of (net, depth) under the overlay view,
// delegating to the base builder's memo whenever the subtree is out of the
// modification's reach.
func (o *Overlay) SubtreeKey(net netlist.NetID, depth int) KeyID {
	return o.subtreeKey(net, depth, 0)
}

func (o *Overlay) subtreeKey(net netlist.NetID, depth, level int) KeyID {
	if depth <= 0 {
		return LeafKey
	}
	if d, dirty := o.dist[net]; !dirty || d > depth {
		return o.base.subtreeKey(net, depth, 0)
	}
	mk := memoKey{net: net, depth: int32(depth)}
	if id, ok := o.memo[mk]; ok {
		return id
	}
	id := LeafKey
	if _, isConst := o.view.NetConst(net); !isConst {
		if g := o.view.DriverOf(net); g != netlist.NoGate {
			if kind := o.view.GateKind(g); kind.IsCombinational() {
				for len(o.frames) <= level {
					o.frames = append(o.frames, keyFrame{})
				}
				o.frames[level].nets = o.view.GateInputs(g, o.frames[level].nets[:0])
				o.frames[level].ids = o.frames[level].ids[:0]
				for i := 0; i < len(o.frames[level].nets); i++ {
					k := o.subtreeKey(o.frames[level].nets[i], depth-1, level+1)
					o.frames[level].ids = append(o.frames[level].ids, k)
				}
				id = o.base.intern.InternNode(kind, o.frames[level].ids)
			}
		}
	}
	o.memo[mk] = id
	return id
}

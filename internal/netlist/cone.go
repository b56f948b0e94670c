package netlist

// ConeNet is one net of a depth-limited fanin cone (see Cone).
type ConeNet struct {
	Net NetID
	// Dist is the net's shortest distance from the root in levels of logic:
	// 0 for the root, 1 for the inputs of its driver, and so on.
	Dist int32
	// Expanded is set when the walk went through the net's driver: Dist is
	// below the depth, the view gives the net no constant, and its driver
	// is combinational. Every other net of the cone is a leaf: a primary
	// input, a flip-flop output, a constant, or the depth frontier.
	Expanded bool
}

// Cone is the depth-limited fanin cone of one net under a View: the root and
// every net its drivers reach within depth levels of logic. It is the window
// in which the structural flow compares bits, and the cut a cone function is
// evaluated over.
//
// Walk fills it level by level, so each net is reached once, at its
// shortest distance from the root, and expanded at most once: on
// reconvergent logic a walk per path is exponential in depth. Any net a
// path reaches within depth levels, a shortest path reaches too, so the
// nets are those a per-path walk finds, and each net has a single role,
// expanded or leaf, which is what makes the cone function the composition
// of the expanded nets' gates over the leaves.
//
// The zero value is ready to use. A Cone keeps its storage from one Walk to
// the next, so a caller that walks many roots, for their union say, walks
// them all into one Cone.
type Cone struct {
	nets []ConeNet
	at   map[NetID]int32 // reached net -> its index in nets
	buf  []NetID
}

// Walk replaces c's contents with the cone of root under v, depth levels
// deep, and returns its nets: the root first, then level by level, each
// level in the pin order of the drivers above it. The slice is c's own and
// is valid until the next Walk. A depth of 0 or less expands nothing.
func (c *Cone) Walk(v View, root NetID, depth int) []ConeNet {
	if c.at == nil {
		c.at = make(map[NetID]int32)
	} else {
		clear(c.at)
	}
	c.nets = append(c.nets[:0], ConeNet{Net: root})
	c.at[root] = 0
	// Nets are appended in order of distance, so the first one at the
	// depth ends the expansion.
	for i := 0; i < len(c.nets) && int(c.nets[i].Dist) < depth; i++ {
		n := c.nets[i].Net
		if _, isConst := v.NetConst(n); isConst {
			continue
		}
		g := v.DriverOf(n)
		if g == NoGate || !v.GateKind(g).IsCombinational() {
			continue
		}
		c.nets[i].Expanded = true
		c.buf = v.GateInputs(g, c.buf[:0])
		for _, in := range c.buf {
			if _, seen := c.at[in]; !seen {
				c.at[in] = int32(len(c.nets))
				c.nets = append(c.nets, ConeNet{Net: in, Dist: c.nets[i].Dist + 1})
			}
		}
	}
	return c.nets
}

// Expanded reports whether the last Walk expanded n.
func (c *Cone) Expanded(n NetID) bool {
	i, ok := c.at[n]
	return ok && c.nets[i].Expanded
}

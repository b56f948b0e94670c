package bench

import (
	"fmt"
	"math/rand"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/refwords"
	"gatewords/internal/rtl"
	"gatewords/internal/synth"
)

// WordClass selects the structural phenomenon a generated word exhibits.
// The classes map onto the behaviors discussed in the paper's evaluation:
// which technique finds the word, and through which mechanism.
type WordClass int

// Word classes. Expected outcomes ("Base" = shape hashing, "Ours" = the
// control-signal technique):
const (
	// ClassA: all bits structurally identical. Both techniques fully find.
	ClassA WordClass = iota
	// ClassB1: Figure-1 style — two similar subtrees per bit plus a
	// per-bit-divergent subtree that one shared control signal removes.
	// Base fragments it; Ours verifies it with a single assignment.
	ClassB1
	// ClassB2: like ClassB1 but the divergent subtrees require two
	// simultaneous assignments (the paper's pair case). Base sees two
	// fragments; Ours verifies with two control signals.
	ClassB2
	// ClassBP: bits share most of their structure but the divergent
	// subtrees have no common net, so no control signal exists. Ours
	// recovers the word through cohesive partial-match grouping (the
	// zero-control-signal improvements of rows b03/b04); Base fragments.
	ClassBP
	// ClassCP: a control word with a little symmetry: exactly two bits
	// partially match. Base finds nothing; Ours groups the pair, so the
	// word moves from not-found to partially-found with no control signal.
	ClassCP
	// ClassC2: like ClassCP but the pair's divergence is resolved by one
	// control signal, exercising reduction on control words.
	ClassC2
	// ClassCtr: a counter. The ripple-carry subtrees diverge per bit but
	// share the low carry net; assigning it kills the carry chain, turning
	// every root into a buffer. Base fragments heavily (truncation only
	// equalizes high bits); Ours verifies all bits except bit 0.
	ClassCtr
	// ClassC: a state register with per-bit-arbitrary logic. Neither
	// technique finds it (the paper's not-found class).
	ClassC
	// ClassD: a word synthesized in structurally distinct blocks. Both
	// techniques see one fragment per block (equal fragmentation).
	ClassD
	// ClassShift: a shift register; D inputs connect straight to other
	// flip-flops, so there are no cones to match. Not found by either.
	ClassShift
)

// String names the class.
func (c WordClass) String() string {
	switch c {
	case ClassA:
		return "A"
	case ClassB1:
		return "B1"
	case ClassB2:
		return "B2"
	case ClassBP:
		return "BP"
	case ClassCP:
		return "CP"
	case ClassC2:
		return "C2"
	case ClassCtr:
		return "CTR"
	case ClassC:
		return "C"
	case ClassD:
		return "D"
	case ClassShift:
		return "SH"
	}
	return "?"
}

// WordSpec describes one register to generate.
type WordSpec struct {
	Width   int
	Class   WordClass
	Variant int // structural flavor within the class
	// Parts is the block count for ClassD (default 2); SharedPrefix is the
	// number of leading bits sharing a divergent-subtree shape for
	// ClassB1/ClassBP (default 2).
	Parts        int
	SharedPrefix int
}

// Profile describes one ITC99-analog benchmark.
type Profile struct {
	Name string
	// Base, when non-empty, names a Table-1 profile this one derives from:
	// Generate resolves it lazily, inheriting the base's words, flags,
	// targets, and seed while keeping this profile's Name and Scan. An
	// unknown base is an error from Generate, not a package-init panic.
	Base        string
	Words       []WordSpec
	Flags       int // single-bit registers (FFs outside any reference word)
	TargetGates int // filler is added until the gate count approaches this
	TargetNets  int // unused pad inputs are added to approach this
	Seed        int64
	// Scan threads a scan chain through every flip-flop (the CAD-inserted
	// control signals the paper's introduction lists). Extension profiles
	// (b08s, b13s) use it to measure robustness to scan insertion.
	Scan bool
}

// Generated is a generated benchmark with its golden reference.
type Generated struct {
	Profile Profile
	NL      *netlist.Netlist
	Refs    []refwords.Word

	rtl *rtl.Design // the word-level design NL was synthesized from
}

// Resynthesize re-maps the generated design's word-level RTL with a
// different synthesis recipe (mux mapping style, fanin cap, numbering seed),
// yielding a netlist functionally equivalent to NL but structurally
// different — raw material for equivalence-checker benchmarks, where the two
// mappings must be proved equal output by output. The profile's scan-chain
// setting is pinned: scan structure is part of the function. It returns an
// error when called on a Generated that was not produced by Generate (no
// retained RTL).
func (g *Generated) Resynthesize(opt synth.Options) (*netlist.Netlist, error) {
	if g.rtl == nil {
		return nil, fmt.Errorf("bench %s: no retained RTL to resynthesize", g.Profile.Name)
	}
	opt.InsertScan = g.Profile.Scan
	res, err := synth.Synthesize(g.rtl, opt)
	if err != nil {
		return nil, err
	}
	return res.NL, nil
}

// resolveBase expands a derived profile (Base != "") into a full one: the
// base's words, flags, targets, and seed with this profile's Name and Scan.
// Only Table-1 profiles can serve as bases, which keeps resolution one level
// deep by construction.
func (p Profile) resolveBase() (Profile, error) {
	for _, cand := range Profiles {
		if cand.Name == p.Base {
			cand.Name = p.Name
			cand.Scan = p.Scan
			return cand, nil
		}
	}
	return Profile{}, fmt.Errorf("bench %s: unknown base profile %q", p.Name, p.Base)
}

// Generate builds the benchmark deterministically from the profile seed.
func (p Profile) Generate() (*Generated, error) {
	if p.Base != "" {
		resolved, err := p.resolveBase()
		if err != nil {
			return nil, err
		}
		p = resolved
	}
	g := &gen{
		rng:  rand.New(rand.NewSource(p.Seed)),
		d:    &rtl.Design{Name: p.Name},
		pool: map[int][]string{},
	}
	// A small shared set of 1-bit control inputs and data buses seeds the
	// source pool; later registers feed from earlier registers, keeping the
	// primary-input count realistic.
	for i := 0; i < nCtlPI; i++ {
		g.ctl = append(g.ctl, g.input(fmt.Sprintf("ctl%d", i), 1))
	}
	for wi, spec := range p.Words {
		name := fmt.Sprintf("w%02d", wi)
		if err := g.buildWord(name, spec); err != nil {
			return nil, fmt.Errorf("bench %s: word %s (%s): %w", p.Name, name, spec.Class, err)
		}
	}
	for fi := 0; fi < p.Flags; fi++ {
		g.buildFlag(fmt.Sprintf("f%02d", fi))
	}
	g.observeRegs()

	// Synthesize once to measure, then add filler and pad inputs to
	// approach the gate/net targets.
	sopt := synth.Options{InsertScan: p.Scan}
	res, err := synth.Synthesize(g.d, sopt)
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 5; attempt++ {
		stats := res.NL.ComputeStats()
		have := stats.Gates + stats.DFFs
		if p.TargetGates <= have+8 {
			break
		}
		g.addFiller(p.TargetGates - have)
		res, err = synth.Synthesize(g.d, sopt)
		if err != nil {
			return nil, err
		}
	}
	if p.TargetNets > 0 {
		pad := p.TargetNets - res.NL.NetCount()
		if pad > 0 {
			g.d.Inputs = append(g.d.Inputs, rtl.Signal{Name: "pad", Width: pad})
			res, err = synth.Synthesize(g.d, sopt)
			if err != nil {
				return nil, err
			}
		}
	}
	refs := refwords.Extract(res.NL)
	return &Generated{Profile: p, NL: res.NL, Refs: refs, rtl: g.d}, nil
}

// nCtlPI is the number of shared primary-input control bits.
const nCtlPI = 8

// gen carries generation state.
type gen struct {
	rng  *rand.Rand
	d    *rtl.Design
	pool map[int][]string // width -> source signal names
	ctl  []string         // 1-bit control signal names
	wn   int              // wire-name counter
	fill int              // filler counter
	decN int              // decode-pair counter
}

func (g *gen) input(name string, width int) string {
	g.d.Inputs = append(g.d.Inputs, rtl.Signal{Name: name, Width: width})
	if width > 1 {
		g.pool[width] = append(g.pool[width], name)
	}
	return name
}

// src returns a source signal of the given width, preferring existing
// signals (register outputs and earlier buses) and creating a fresh input
// bus when none fits. fresh forces a new private input bus.
func (g *gen) src(width int, fresh bool) string {
	if !fresh {
		if cands := g.pool[width]; len(cands) > 0 {
			return cands[g.rng.Intn(len(cands))]
		}
	}
	name := fmt.Sprintf("d%d_%d", width, len(g.pool[width]))
	if fresh {
		name = fmt.Sprintf("p%d_%d_%d", width, len(g.d.Inputs), g.rng.Intn(1000))
	}
	return g.input(name, width)
}

// ctlSig returns a 1-bit control source (any control, including decodes).
func (g *gen) ctlSig() rtl.BitExpr {
	name := g.ctl[g.rng.Intn(len(g.ctl))]
	return rtl.Bit(name, 0)
}

// ctlPI returns a primary-input control bit. Word templates use it for
// their select/auxiliary signals so that one word's kill-decode never
// aliases another word's selects, which would entangle reduction trials.
func (g *gen) ctlPI() rtl.BitExpr {
	return rtl.Bit(g.ctl[g.rng.Intn(nCtlPI)], 0)
}

// decode creates a fresh shared decode wire (NAND of two primary-input
// controls), the kind of internally generated control signal the technique
// discovers. Decodes deliberately never feed other decodes: independent
// decode cones keep one word's control signal from dominating another's.
func (g *gen) decode() string {
	g.wn++
	name := fmt.Sprintf("dec%d", g.wn)
	// Enumerate distinct unordered control pairs so no two decode wires are
	// structurally identical over identical nets — gate-level CSE would
	// merge them into one net and words would share a control signal.
	i, j := 0, 1
	for n := g.decN; n > 0; n-- {
		j++
		if j >= nCtlPI {
			i++
			j = i + 1
		}
		if i >= nCtlPI-1 {
			i, j = 0, 1 // wrap; duplicates only after C(nCtlPI,2) decodes
		}
	}
	g.decN++
	g.d.Wires = append(g.d.Wires, rtl.Wire{
		Name:  name,
		Width: 1,
		Bits:  []rtl.BitExpr{rtl.B(logic.Nand, rtl.Bit(g.ctl[i], 0), rtl.Bit(g.ctl[j], 0))},
	})
	g.ctl = append(g.ctl, name)
	return name
}

// register appends a register and adds its output to the source pool.
func (g *gen) register(r *rtl.Reg) {
	g.d.Regs = append(g.d.Regs, r)
	if r.Width > 1 {
		g.pool[r.Width] = append(g.pool[r.Width], r.Name)
	}
}

// observeRegs gives every register an output cone so nothing is dead.
func (g *gen) observeRegs() {
	var parts []rtl.Expr
	for _, r := range g.d.Regs {
		parts = append(parts, rtl.RedOr{A: rtl.Ref{Name: r.Name}})
	}
	for len(parts) > 0 {
		n := len(parts)
		if n > 8 {
			n = 8
		}
		chunk := parts[:n]
		parts = parts[n:]
		name := fmt.Sprintf("obs%d", len(g.d.Outputs))
		g.d.Outputs = append(g.d.Outputs, rtl.Output{Name: name, Expr: rtl.RedOr{A: rtl.Concat{Parts: chunk}}})
	}
}

func (g *gen) buildWord(name string, spec WordSpec) error {
	if spec.Width < 2 {
		return fmt.Errorf("word width %d too small", spec.Width)
	}
	switch spec.Class {
	case ClassA:
		g.buildA(name, spec)
	case ClassB1:
		g.buildB1(name, spec)
	case ClassB2:
		g.buildB2(name, spec)
	case ClassBP:
		g.buildBP(name, spec)
	case ClassCP:
		g.buildCP(name, spec, false)
	case ClassC2:
		g.buildCP(name, spec, true)
	case ClassCtr:
		g.buildCtr(name, spec)
	case ClassC:
		g.buildC(name, spec)
	case ClassD:
		g.buildD(name, spec)
	case ClassShift:
		g.buildShift(name, spec)
	default:
		return fmt.Errorf("unknown class %d", spec.Class)
	}
	return nil
}

// buildA emits a word whose bits are structurally identical.
func (g *gen) buildA(name string, spec WordSpec) {
	w := spec.Width
	a, b := g.src(w, false), g.src(w, false)
	switch spec.Variant % 5 {
	case 0: // three-way NAND select, Figure-1 shape without divergence
		c := g.src(w, false)
		s1, s2, s3 := g.ctlSig(), g.ctlSig(), g.ctlSig()
		bits := make([]rtl.BitExpr, w)
		for i := range bits {
			bits[i] = rtl.B(logic.Nand,
				rtl.B(logic.Nand, rtl.Bit(a, i), s1),
				rtl.B(logic.Nand, rtl.Bit(b, i), s2),
				rtl.B(logic.Nand, rtl.Bit(c, i), s3),
			)
		}
		g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
	case 1: // NOR-flavored two-way select
		s1, s2 := g.ctlSig(), g.ctlSig()
		bits := make([]rtl.BitExpr, w)
		for i := range bits {
			bits[i] = rtl.B(logic.Nor,
				rtl.B(logic.Nor, rtl.Bit(a, i), s1),
				rtl.B(logic.Nor, rtl.Bit(b, i), s2),
			)
		}
		g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
	case 2: // word-level mux, MUX2 cells
		g.register(&rtl.Reg{Name: name, Width: w,
			Next: rtl.Mux{Sel: rtl.Ref{Name: g.ctlName()}, A: rtl.Ref{Name: a}, B: rtl.Ref{Name: b}}})
	case 3: // word-level XOR datapath
		g.register(&rtl.Reg{Name: name, Width: w,
			Next: rtl.Bin{Kind: logic.Xor, A: rtl.Ref{Name: a}, B: rtl.Ref{Name: b}}})
	default: // enabled load, NAND-mapped mux
		g.wn++
		g.register(&rtl.Reg{Name: name, Width: w,
			Next: rtl.Mux{Sel: rtl.Ref{Name: g.ctlName()}, A: rtl.Ref{Name: name}, B: rtl.Ref{Name: a}}})
	}
}

// ctlName returns a 1-bit control signal name (for word-level Mux selects).
func (g *gen) ctlName() string { return g.ctl[g.rng.Intn(len(g.ctl))] }

// divergent returns the i'th divergent-subtree variant over data bit d,
// extra signal m, and kill-control k. Every variant is forced to constant 1
// when k = 0 (k always feeds a NAND/OAI input whose controlling value is 0).
func divergent(variant int, d, m, k rtl.BitExpr) rtl.BitExpr {
	switch variant % 4 {
	case 0:
		return rtl.B(logic.Nand, d, k)
	case 1:
		return rtl.B(logic.Nand, d, m, k)
	case 2:
		return rtl.B(logic.Nand, rtl.B(logic.Nand, d, m), k)
	default:
		return rtl.B(logic.Oai21, d, m, k)
	}
}

// buildB1 emits a Figure-1-style word: per-bit roots NAND3(similar,
// similar, divergent_i) where all divergent subtrees contain the shared
// decode signal k at a killing position.
func (g *gen) buildB1(name string, spec WordSpec) {
	w := spec.Width
	a, b, c := g.src(w, false), g.src(w, false), g.src(w, false)
	s1, s2 := g.ctlPI(), g.ctlPI()
	k := rtl.Bit(g.decode(), 0)
	m := g.ctlPI()
	prefix := spec.SharedPrefix
	if prefix <= 0 {
		prefix = 2
	}
	bits := make([]rtl.BitExpr, w)
	for i := range bits {
		variant := 0
		if i >= prefix {
			// The remaining bits cycle through distinct divergent shapes.
			variant = 1 + (i-prefix)%3
		}
		if i == w-1 && variant == 1 {
			// The last bit's divergent subtree is the gate emitted directly
			// before the word's root gates; variant 1 is a 3-input NAND
			// like the roots themselves and would merge into their
			// adjacency run, polluting the subgroup. Use another shape.
			variant = 2
		}
		bits[i] = rtl.B(logic.Nand,
			rtl.B(logic.Nand, rtl.Bit(a, i), s1),
			rtl.B(logic.Nand, rtl.Bit(b, i), s2),
			divergent(variant, rtl.Bit(c, i), m, k),
		)
	}
	g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
}

// buildB2 emits a word whose two block halves need different control
// signals: half the divergent subtrees are killed only by k1=0, the other
// half only by k2=0; both signals appear in every divergent subtree, so the
// pair assignment resolves the whole word.
func (g *gen) buildB2(name string, spec WordSpec) {
	w := spec.Width
	a, b, c := g.src(w, false), g.src(w, false), g.src(w, false)
	s1, s2 := g.ctlPI(), g.ctlPI()
	k1 := rtl.Bit(g.decode(), 0)
	k2 := rtl.Bit(g.decode(), 0)
	bits := make([]rtl.BitExpr, w)
	for i := range bits {
		// The two halves must differ structurally (hash keys ignore net
		// identity, so mirrored NAND trees would collide): the low half is
		// killed only by k1=0 through a NAND, the high half only by k2=0
		// through an OAI21 — but both signals appear in every divergent
		// subtree, so both are identified as relevant.
		var z rtl.BitExpr
		if i < w/2 {
			z = rtl.B(logic.Nand, rtl.B(logic.Nand, rtl.Bit(c, i), k2), k1)
		} else {
			z = rtl.B(logic.Oai21, rtl.Bit(c, i), k1, k2)
		}
		bits[i] = rtl.B(logic.Nand,
			rtl.B(logic.Nand, rtl.Bit(a, i), s1),
			rtl.B(logic.Nand, rtl.Bit(b, i), s2),
			z,
		)
	}
	g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
}

// buildBP emits a word recoverable only by cohesive partial grouping: the
// divergent subtrees share no net, so no control signal exists.
func (g *gen) buildBP(name string, spec WordSpec) {
	w := spec.Width
	a := g.src(w, false)
	u := g.src(w, true)
	v := g.src(w, true)
	ld := g.ctlSig()
	prefix := spec.SharedPrefix
	if prefix <= 0 {
		prefix = 2
	}
	kinds := []logic.Kind{logic.Nand, logic.And, logic.Or, logic.Nor, logic.Xor, logic.Xnor}
	bits := make([]rtl.BitExpr, w)
	for i := range bits {
		kind := kinds[0]
		if i >= prefix {
			kind = kinds[1+(i-prefix)%(len(kinds)-1)]
		}
		bits[i] = rtl.B(logic.Mux2, ld, rtl.Bit(a, i), rtl.B(kind, rtl.Bit(u, i), rtl.Bit(v, i)))
	}
	g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
}

// buildCP emits a control word with a little structural symmetry: the first
// SharedPrefix bits (default 2) share one subtree shape while their second
// subtrees diverge. Without a control (ClassCP) the divergent subtrees have
// no common net, so only cohesive partial grouping recovers the cluster;
// withCtl (ClassC2) plants a shared kill-control so reduction verifies it.
// The remaining bits carry per-bit arbitrary logic with distinct root types.
func (g *gen) buildCP(name string, spec WordSpec, withCtl bool) {
	w := spec.Width
	cluster := spec.SharedPrefix
	if cluster < 2 {
		cluster = 2
	}
	if cluster > w {
		cluster = w
	}
	x := g.src(w, true)
	y := g.src(w, true)
	bits := make([]rtl.BitExpr, w)
	var k, m rtl.BitExpr
	if withCtl {
		k = rtl.Bit(g.decode(), 0)
		m = g.ctlPI()
	}
	plainKinds := []logic.Kind{logic.And, logic.Xor, logic.Or, logic.Xnor}
	for i := 0; i < cluster; i++ {
		shared := rtl.B(logic.Nor, rtl.Bit(x, i), rtl.Bit(y, i))
		if withCtl {
			bits[i] = rtl.B(logic.Nand, shared, divergent(i%4, rtl.Bit(y, i), m, k))
		} else {
			bits[i] = rtl.B(logic.Nand, shared,
				rtl.B(plainKinds[i%len(plainKinds)], rtl.Bit(x, i), rtl.Bit(y, i)))
		}
	}
	roots := distinctRoots()
	for i := cluster; i < w; i++ {
		bits[i] = g.randomTree(roots[i%len(roots)], x, y, i)
	}
	g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
}

// buildCtr emits a counter; variant 1 adds a word-level enable mux.
func (g *gen) buildCtr(name string, spec WordSpec) {
	next := rtl.Expr(rtl.Inc{A: rtl.Ref{Name: name}})
	if spec.Variant%2 == 1 {
		next = rtl.Mux{Sel: rtl.Ref{Name: g.ctlName()}, A: rtl.Ref{Name: name}, B: next}
	}
	g.register(&rtl.Reg{Name: name, Width: spec.Width, Next: next})
}

// rootType is a (kind, arity) pair used to keep ClassC bits in distinct
// adjacency runs.
type rootType struct {
	kind  logic.Kind
	arity int
}

func distinctRoots() []rootType {
	return []rootType{
		{logic.Nand, 2}, {logic.Nor, 2}, {logic.And, 2}, {logic.Or, 2},
		{logic.Xor, 2}, {logic.Xnor, 2}, {logic.Nand, 3}, {logic.Nor, 3},
		{logic.And, 3}, {logic.Or, 3}, {logic.Aoi21, 3}, {logic.Oai21, 3},
		{logic.Nand, 4}, {logic.Nor, 4}, {logic.And, 4}, {logic.Or, 4},
	}
}

// randomTree builds a small random expression with the given root type over
// bits of buses x and y; sub-shapes vary with the rng.
func (g *gen) randomTree(rt rootType, x, y string, bit int) rtl.BitExpr {
	leaf := func() rtl.BitExpr {
		if g.rng.Intn(2) == 0 {
			return rtl.Bit(x, bit)
		}
		return rtl.Bit(y, bit)
	}
	subKinds := []logic.Kind{logic.Nand, logic.Nor, logic.And, logic.Or, logic.Xor}
	sub := func() rtl.BitExpr {
		switch g.rng.Intn(3) {
		case 0:
			return leaf()
		case 1:
			return rtl.B(subKinds[g.rng.Intn(len(subKinds))], leaf(), g.ctlSig())
		default:
			return rtl.B(logic.Not, rtl.B(subKinds[g.rng.Intn(len(subKinds))], leaf(), leaf()))
		}
	}
	args := make([]rtl.BitExpr, rt.arity)
	for i := range args {
		args[i] = sub()
	}
	return rtl.BOp{Kind: rt.kind, Args: args}
}

// buildC emits a state register with per-bit arbitrary logic and distinct
// root types, so no two bits group.
func (g *gen) buildC(name string, spec WordSpec) {
	w := spec.Width
	x := g.src(w, true)
	y := g.src(w, true)
	roots := distinctRoots()
	g.rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
	bits := make([]rtl.BitExpr, w)
	for i := range bits {
		bits[i] = g.randomTree(roots[i%len(roots)], x, y, i)
	}
	g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
}

// buildD emits a word mapped in structurally distinct blocks: every block
// has uniform bits but blocks differ in root type, so both techniques see
// one fragment per block.
func (g *gen) buildD(name string, spec WordSpec) {
	w := spec.Width
	parts := spec.Parts
	if parts < 2 {
		parts = 2
	}
	a, b := g.src(w, false), g.src(w, false)
	s1, s2 := g.ctlSig(), g.ctlSig()
	styles := []func(i int) rtl.BitExpr{
		func(i int) rtl.BitExpr {
			return rtl.B(logic.Nand, rtl.B(logic.Nand, rtl.Bit(a, i), s1), rtl.B(logic.Nand, rtl.Bit(b, i), s2))
		},
		func(i int) rtl.BitExpr {
			return rtl.B(logic.Nor, rtl.B(logic.Nor, rtl.Bit(a, i), s1), rtl.B(logic.Nor, rtl.Bit(b, i), s2))
		},
		func(i int) rtl.BitExpr {
			return rtl.B(logic.Nand, rtl.B(logic.Nand, rtl.Bit(a, i), s1), rtl.B(logic.Nand, rtl.Bit(b, i), s2), rtl.B(logic.Nand, s1, s2))
		},
		func(i int) rtl.BitExpr {
			return rtl.B(logic.Mux2, s1, rtl.Bit(a, i), rtl.Bit(b, i))
		},
	}
	bits := make([]rtl.BitExpr, w)
	for i := range bits {
		block := i * parts / w
		bits[i] = styles[block%len(styles)](i)
	}
	g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
}

// buildShift emits a shift register: D inputs are direct connections, so
// there is no structure to match.
func (g *gen) buildShift(name string, spec WordSpec) {
	w := spec.Width
	si := g.src(1, true)
	bits := make([]rtl.BitExpr, w)
	bits[0] = rtl.Bit(si, 0)
	for i := 1; i < w; i++ {
		bits[i] = rtl.Bit(name, i-1)
	}
	g.register(&rtl.Reg{Name: name, Width: w, NextBits: bits})
}

// buildFlag emits a single-bit register (not a reference word).
func (g *gen) buildFlag(name string) {
	x := g.ctlSig()
	y := g.ctlSig()
	kinds := []logic.Kind{logic.Nand, logic.Nor, logic.Xor, logic.And, logic.Or}
	g.register(&rtl.Reg{Name: name, Width: 1,
		NextBits: []rtl.BitExpr{rtl.B(kinds[g.rng.Intn(len(kinds))], x, y)}})
}

// addFiller appends random combinational clouds totalling roughly n gates.
// Each cloud rotates its leaf pattern by the cloud index so that clouds over
// the same source buses stay structurally distinct and are not collapsed by
// the synthesizer's common-subexpression sharing.
func (g *gen) addFiller(n int) {
	kinds := []logic.Kind{logic.Nand, logic.Nor, logic.And, logic.Or, logic.Xor, logic.Xnor}
	for n > 0 {
		width := 16
		if n < 64 {
			width = 4
		}
		a := g.src(width, false)
		b := g.src(width, false)
		g.fill++
		off := g.fill % width
		name := fmt.Sprintf("fill%d", g.fill)
		bits := make([]rtl.BitExpr, width)
		for i := range bits {
			k1 := kinds[g.rng.Intn(len(kinds))]
			k2 := kinds[g.rng.Intn(len(kinds))]
			k3 := kinds[g.rng.Intn(len(kinds))]
			k4 := kinds[g.rng.Intn(len(kinds))]
			bits[i] = rtl.B(k1,
				rtl.B(k2, rtl.Bit(a, (i+off)%width), g.ctlSig()),
				rtl.B(k3, rtl.Bit(b, (i+2*off+1)%width),
					rtl.B(k4, rtl.Bit(a, (i+1)%width), rtl.Bit(b, (i+off+3)%width))),
			)
		}
		g.d.Wires = append(g.d.Wires, rtl.Wire{Name: name, Width: width, Bits: bits})
		g.d.Outputs = append(g.d.Outputs, rtl.Output{Name: name + "o", Expr: rtl.RedOr{A: rtl.Ref{Name: name}}})
		// Per filler cloud: ~4 gates per bit plus the reduction tree and
		// output buffers, minus expected sharing losses.
		n -= width*4 + width/2 + 2
	}
}

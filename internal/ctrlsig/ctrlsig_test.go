package ctrlsig

import (
	"testing"

	"gatewords/internal/cone"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// figure1ish builds three bits in the Figure-1 pattern directly at gate
// level and returns the pieces needed for control-signal analysis:
//
//	u223 = NAND(p, q)          (common decode root, dominated)
//	u201 = NAND(u223, r)       (relevant)
//	u221 = NAND(u223, s)       (relevant)
//	Z_i  = per-bit combos of u201/u221 with data ru<i>
//	bit_i = NAND3(X_i, Y_i, Z_i), X/Y similar
func figure1ish(t *testing.T) (nl *netlist.Netlist, bits []netlist.NetID, names map[string]netlist.NetID) {
	t.Helper()
	nl = netlist.New("f1")
	names = map[string]netlist.NetID{}
	net := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		names[n] = id
		return id
	}
	pi := func(n string) netlist.NetID {
		id := net(n)
		nl.MarkPI(id)
		return id
	}
	p, q, r, s := pi("p"), pi("q"), pi("r"), pi("s")
	u202 := net("u202")
	nl.MustGate("u202", logic.Nand, u202, pi("t"), pi("u"))
	u223 := net("u223")
	nl.MustGate("u223", logic.Nand, u223, p, q)
	u201 := net("u201")
	nl.MustGate("u201", logic.Nand, u201, u223, r)
	u221 := net("u221")
	nl.MustGate("u221", logic.Nand, u221, u223, s)

	for i := 0; i < 3; i++ {
		sfx := string(rune('0' + i))
		x := net("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, pi("coda0_"+sfx), u202)
		y := net("y" + sfx)
		nl.MustGate("gy"+sfx, logic.Nand, y, pi("coda1_"+sfx), u202)
		z := net("z" + sfx)
		switch i {
		case 0:
			nl.MustGate("gz"+sfx, logic.Nand, z, pi("ru0"), u221, u201)
		case 1:
			nl.MustGate("gz"+sfx, logic.Nand, z, pi("ru1"), u201, u221)
		default:
			inner := net("zi" + sfx)
			nl.MustGate("gzi"+sfx, logic.Nand, inner, pi("ru2x"), u221)
			nl.MustGate("gz"+sfx, logic.Nand, z, inner, u201)
		}
		bit := net("bit" + sfx)
		nl.MustGate("gb"+sfx, logic.Nand, bit, x, y, z)
		bits = append(bits, bit)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl, bits, names
}

func analyze(t *testing.T, nl *netlist.Netlist, bits []netlist.NetID) [][]cone.Subtree {
	t.Helper()
	it := cone.NewInterner()
	b := cone.NewBuilder(nl, it, 4)
	var cones []*cone.BitCone
	for _, n := range bits {
		bc := b.Bit(n)
		if bc == nil {
			t.Fatalf("no cone for %s", nl.NetName(n))
		}
		cones = append(cones, bc)
	}
	common := cone.CommonKeys(cones)
	dissim := make([][]cone.Subtree, len(cones))
	for i, bc := range cones {
		dissim[i] = cone.Dissimilar(bc, common)
	}
	return dissim
}

func TestFindRelevantSignals(t *testing.T) {
	nl, bits, names := figure1ish(t)
	dissim := analyze(t, nl, bits)
	sigs := Find(nl, dissim, 3)
	got := map[netlist.NetID]Signal{}
	for _, s := range sigs {
		got[s.Net] = s
	}
	if _, ok := got[names["u201"]]; !ok {
		t.Errorf("u201 not found; sigs: %v", sigNames(nl, sigs))
	}
	if _, ok := got[names["u221"]]; !ok {
		t.Errorf("u221 not found; sigs: %v", sigNames(nl, sigs))
	}
	if _, ok := got[names["u223"]]; ok {
		t.Error("dominated u223 must be pruned")
	}
	if _, ok := got[names["p"]]; ok {
		t.Error("dominated PI p must be pruned")
	}
	if _, ok := got[names["u202"]]; ok {
		t.Error("u202 appears only in matching subtrees and must not be a signal")
	}
	// Feasible values: u201/u221 feed NANDs, so the controlling value 0.
	for _, name := range []string{"u201", "u221"} {
		s := got[names[name]]
		if len(s.Values) != 1 || s.Values[0] != logic.Zero {
			t.Errorf("%s values = %v, want [0]", name, s.Values)
		}
	}
}

func TestFindNoCommonNets(t *testing.T) {
	// Three bits whose dissimilar subtrees use disjoint nets: no signals.
	nl := netlist.New("t")
	var bits []netlist.NetID
	shared := nl.MustNet("sh")
	nl.MarkPI(shared)
	for i := 0; i < 3; i++ {
		sfx := string(rune('0' + i))
		a := nl.MustNet("a" + sfx)
		nl.MarkPI(a)
		b := nl.MustNet("b" + sfx)
		nl.MarkPI(b)
		x := nl.MustNet("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, a, shared)
		var z netlist.NetID
		z = nl.MustNet("z" + sfx)
		switch i {
		case 0:
			nl.MustGate("gz"+sfx, logic.And, z, a, b)
		case 1:
			nl.MustGate("gz"+sfx, logic.Or, z, a, b)
		default:
			nl.MustGate("gz"+sfx, logic.Xor, z, a, b)
		}
		bit := nl.MustNet("bit" + sfx)
		nl.MustGate("gb"+sfx, logic.Nand, bit, x, z)
		bits = append(bits, bit)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	dissim := analyze(t, nl, bits)
	if sigs := Find(nl, dissim, 3); len(sigs) != 0 {
		t.Errorf("expected no signals, got %v", sigNames(nl, sigs))
	}
}

func TestFindSingleDissimilarSubtree(t *testing.T) {
	// One bit has an extra subtree: its root is the only candidate.
	nl := netlist.New("t")
	sh := nl.MustNet("sh")
	nl.MarkPI(sh)
	mkbit := func(sfx string, extra bool) netlist.NetID {
		a := nl.MustNet("a" + sfx)
		nl.MarkPI(a)
		b := nl.MustNet("b" + sfx)
		nl.MarkPI(b)
		x := nl.MustNet("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, a, sh)
		y := nl.MustNet("y" + sfx)
		nl.MustGate("gy"+sfx, logic.Nand, y, b, sh)
		if !extra {
			bit := nl.MustNet("bit" + sfx)
			nl.MustGate("gb"+sfx, logic.Nand, bit, x, y)
			return bit
		}
		e := nl.MustNet("e" + sfx)
		nl.MustGate("ge"+sfx, logic.Nor, e, a, sh)
		bit := nl.MustNet("bit" + sfx)
		nl.MustGate("gb"+sfx, logic.Nand, bit, x, y, e)
		return bit
	}
	b0 := mkbit("0", false)
	b1 := mkbit("1", true)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	dissim := analyze(t, nl, []netlist.NetID{b0, b1})
	sigs := Find(nl, dissim, 3)
	if len(sigs) != 1 {
		t.Fatalf("sigs = %v", sigNames(nl, sigs))
	}
	if nl.NetName(sigs[0].Net) != "e1" {
		t.Errorf("signal = %s, want e1 (root of the extra subtree)", nl.NetName(sigs[0].Net))
	}
}

// TestFindSingleSubtreeParityRoot drives the len(sets)==1 path end to end
// when the lone extra subtree's root feeds only a parity gate: the root is
// the only candidate and, lacking a controlling value anywhere in its
// fanout, it gets both assignment values.
func TestFindSingleSubtreeParityRoot(t *testing.T) {
	nl := netlist.New("t")
	sh := nl.MustNet("sh")
	nl.MarkPI(sh)
	mkparts := func(sfx string) (x, y netlist.NetID) {
		a := nl.MustNet("a" + sfx)
		nl.MarkPI(a)
		b := nl.MustNet("b" + sfx)
		nl.MarkPI(b)
		x = nl.MustNet("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, a, sh)
		y = nl.MustNet("y" + sfx)
		nl.MustGate("gy"+sfx, logic.Nand, y, b, sh)
		return x, y
	}
	x0, y0 := mkparts("0")
	b0 := nl.MustNet("bit0")
	nl.MustGate("gb0", logic.Xor, b0, x0, y0)
	x1, y1 := mkparts("1")
	e := nl.MustNet("e1")
	nl.MustGate("ge1", logic.Nor, e, x1, sh)
	b1 := nl.MustNet("bit1")
	// The extra subtree root e feeds only this XOR: no controlling value.
	nl.MustGate("gb1", logic.Xor, b1, x1, y1, e)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	dissim := analyze(t, nl, []netlist.NetID{b0, b1})
	total := 0
	for _, d := range dissim {
		total += len(d)
	}
	if total != 1 {
		t.Fatalf("want exactly one dissimilar subtree, got %d", total)
	}
	sigs := Find(nl, dissim, 3)
	if len(sigs) != 1 || nl.NetName(sigs[0].Net) != "e1" {
		t.Fatalf("sigs = %v, want just e1", sigNames(nl, sigs))
	}
	if len(sigs[0].Values) != 2 {
		t.Errorf("values = %v, want both (root feeds only parity gates)", sigs[0].Values)
	}
}

// TestMakeSignalRegionFallback covers the two-stage fanout scan: inside the
// dissimilar region the net feeds only a MUX (no controlling value), so the
// scan widens to the full fanout and picks up the NAND's controlling 0.
func TestMakeSignalRegionFallback(t *testing.T) {
	nl := netlist.New("t")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	c, a, b2, d := pi("c"), pi("a"), pi("b"), pi("d")
	inRegion := nl.MustNet("m")
	nl.MustGate("gm", logic.Mux2, inRegion, c, a, b2)
	outside := nl.MustNet("o")
	nl.MustGate("go", logic.Nand, outside, c, d)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	s := makeSignal(nl, c, map[netlist.NetID]int{inRegion: 1})
	if len(s.Values) != 1 || s.Values[0] != logic.Zero {
		t.Errorf("values = %v, want [0] via out-of-region NAND", s.Values)
	}
}

func TestMakeSignalValueFallback(t *testing.T) {
	// A signal feeding only XOR gates has no controlling value: both
	// values are feasible.
	nl := netlist.New("t")
	a := nl.MustNet("a")
	c := nl.MustNet("c")
	nl.MarkPI(a)
	nl.MarkPI(c)
	y := nl.MustNet("y")
	nl.MustGate("g", logic.Xor, y, a, c)
	s := makeSignal(nl, c, map[netlist.NetID]int{y: 1})
	if len(s.Values) != 2 {
		t.Errorf("values = %v, want both", s.Values)
	}
}

func sigNames(nl *netlist.Netlist, sigs []Signal) []string {
	out := make([]string, len(sigs))
	for i, s := range sigs {
		out[i] = nl.NetName(s.Net)
	}
	return out
}

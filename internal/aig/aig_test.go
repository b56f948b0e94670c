package aig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

func TestFoldingRules(t *testing.T) {
	g := New()
	a, b := g.Input("a"), g.Input("b")
	cases := []struct {
		name string
		got  Lit
		want Lit
	}{
		{"and-false", g.And(a, False), False},
		{"and-true", g.And(a, True), a},
		{"and-idempotent", g.And(a, a), a},
		{"and-complement", g.And(a, a.Not()), False},
		{"or-true", g.Or(a, True), True},
		{"or-false", g.Or(a, False), a},
		{"xor-self", g.Xor(a, a), False},
		{"xor-complement", g.Xor(a, a.Not()), True},
		{"mux-same", g.Mux(b, a, a), a},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestStructuralHashing(t *testing.T) {
	g := New()
	a, b, c := g.Input("a"), g.Input("b"), g.Input("c")
	x1 := g.And(g.And(a, b), c)
	x2 := g.And(g.And(a, b), c)
	if x1 != x2 {
		t.Fatalf("identical structure not hashed: %v vs %v", x1, x2)
	}
	y1 := g.And(a, b)
	y2 := g.And(b, a)
	if y1 != y2 {
		t.Fatalf("commuted AND not hashed: %v vs %v", y1, y2)
	}
	// The constant, three inputs and two ANDs.
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", g.NumNodes())
	}
}

func TestInputDedup(t *testing.T) {
	g := New()
	if g.Input("x") != g.Input("x") {
		t.Fatal("same-name inputs not deduplicated")
	}
	if g.NumInputs() != 1 {
		t.Fatalf("NumInputs = %d, want 1", g.NumInputs())
	}
}

// TestLowerGateMatchesEval checks, for every combinational kind and every
// admissible arity up to 4, that the AIG lowering computes exactly what
// logic.Eval computes on fully known inputs — i.e. the AIG's two-valued
// semantics is the completion of the three-valued one.
func TestLowerGateMatchesEval(t *testing.T) {
	for _, k := range logic.CombinationalKinds() {
		arities := []int{2, 3, 4}
		if n, fixed := k.FixedArity(); fixed {
			arities = []int{n}
		}
		for _, n := range arities {
			if !k.ValidArity(n) {
				continue
			}
			g := New()
			ins := make([]Lit, n)
			for i := range ins {
				ins[i] = g.Input(string(rune('a' + i)))
			}
			out, err := g.LowerGate(k, ins)
			if err != nil {
				t.Fatalf("%s/%d: %v", k, n, err)
			}
			for mask := 0; mask < 1<<n; mask++ {
				vals := make([]logic.Value, n)
				assign := make([]bool, n)
				for i := 0; i < n; i++ {
					bit := mask>>i&1 == 1
					assign[i] = bit
					vals[i] = logic.FromBool(bit)
				}
				want := logic.Eval(k, vals) == logic.One
				got := g.EvalBool(assign, out)
				if got != want {
					t.Errorf("%s/%d mask %b: aig=%v eval=%v", k, n, mask, got, want)
				}
			}
		}
	}
}

func TestLowerGateRejectsBadArity(t *testing.T) {
	g := New()
	if _, err := g.LowerGate(logic.Mux2, []Lit{g.Input("a")}); err == nil {
		t.Fatal("Mux2 with 1 input accepted")
	}
	if _, err := g.LowerGate(logic.DFF, []Lit{g.Input("a")}); err == nil {
		t.Fatal("DFF lowering accepted")
	}
}

func TestSim64(t *testing.T) {
	g := New()
	a, b := g.Input("a"), g.Input("b")
	x := g.Xor(a, b)
	// Lane i carries pattern (a,b) = (i&1, i>>1&1) for i in 0..3.
	words := []uint64{0b0101, 0b0011}
	vals := g.Sim64(words, nil)
	if got := Word(vals, x) & 0xf; got != 0b0110 {
		t.Fatalf("xor word = %04b, want 0110", got)
	}
	if got := Word(vals, x.Not()) & 0xf; got != 0b1001 {
		t.Fatalf("!xor word = %04b, want 1001", got)
	}
}

func TestSupport(t *testing.T) {
	g := New()
	a, b := g.Input("a"), g.Input("b")
	g.Input("c") // unused
	x := g.And(a, g.Or(b, a))
	sup := g.Support(x)
	if len(sup) != 2 || g.InputName(sup[0]) != "a" || g.InputName(sup[1]) != "b" {
		t.Fatalf("support = %v", sup)
	}
	if s := g.Support(True); len(s) != 0 {
		t.Fatalf("support of constant = %v", s)
	}
}

// buildFrameNetlist is a small mixed netlist: one PO cone, one flip-flop.
func buildFrameNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("frame")
	a := nl.MustNet("a")
	b := nl.MustNet("b")
	nl.MarkPI(a)
	nl.MarkPI(b)
	q := nl.MustNet("q")
	x := nl.MustNet("x")
	y := nl.MustNet("y")
	nl.MustGate("g1", logic.And, x, a, q)
	nl.MustGate("g2", logic.Xor, y, x, b)
	nl.MustGate("ff", logic.DFF, q, y)
	nl.MarkPO(y)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestAddFrame(t *testing.T) {
	nl := buildFrameNetlist(t)
	g := New()
	f, err := AddFrame(g, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs: a, b, q (FF output). Outputs: y (PO) and ff:ff (next state).
	for _, in := range []string{"a", "b", "q"} {
		if _, ok := f.Inputs[in]; !ok {
			t.Errorf("missing frame input %q", in)
		}
	}
	if _, ok := f.Outputs["y"]; !ok {
		t.Error("missing PO observable y")
	}
	if _, ok := f.Outputs[FFPrefix+"ff"]; !ok {
		t.Error("missing next-state observable ff:ff")
	}
	// y = (a&q) ^ b; check one assignment: a=1 q=1 b=0 -> 1.
	words := map[string]uint64{"a": ^uint64(0), "q": ^uint64(0), "b": 0}
	in := make([]uint64, g.NumInputs())
	for i := 0; i < g.NumInputs(); i++ {
		in[i] = words[g.InputName(i)]
	}
	vals := g.Sim64(in, nil)
	if Word(vals, f.Outputs["y"])&1 != 1 {
		t.Error("y != 1 under a=1 q=1 b=0")
	}
	// Next state equals y in this netlist.
	if f.Outputs["y"] != f.Outputs[FFPrefix+"ff"] {
		t.Error("next-state literal should strash-equal y")
	}
}

func TestAddFramePinInternalNet(t *testing.T) {
	nl := buildFrameNetlist(t)
	g := New()
	f, err := AddFrame(g, nl, map[string]logic.Value{"x": logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	// With x pinned to 0, y = 0 ^ b = b.
	if f.Outputs["y"] != f.Inputs["b"] {
		t.Fatalf("pinned frame: y = %v, want input b %v", f.Outputs["y"], f.Inputs["b"])
	}
}

func TestConeLowering(t *testing.T) {
	nl := buildFrameNetlist(t)
	cl := NewConeLowerer(New(), nl.NetName)
	y, _ := nl.NetByName("y")
	// Depth 1: only g2 expanded; x and b are cut variables.
	internal := ConeInternal(nl, y, 1)
	l1, err := cl.LowerCut(nl, y, internal)
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) != 1 || !internal[y] {
		t.Fatalf("depth-1 internal set = %v", internal)
	}
	want := cl.G.Xor(cl.VarFor(mustNet(t, nl, "x")), cl.VarFor(mustNet(t, nl, "b")))
	if l1 != want {
		t.Fatalf("depth-1 cone lit %v, want %v", l1, want)
	}
	// Depth 3: x expands to a&q; q is a DFF boundary, stays free.
	internal3 := ConeInternal(nl, y, 3)
	l3, err := cl.LowerCut(nl, y, internal3)
	if err != nil {
		t.Fatal(err)
	}
	if !internal3[mustNet(t, nl, "x")] {
		t.Fatal("depth-3 should expand x")
	}
	wx := cl.G.And(cl.VarFor(mustNet(t, nl, "a")), cl.VarFor(mustNet(t, nl, "q")))
	if l3 != cl.G.Xor(wx, cl.VarFor(mustNet(t, nl, "b"))) {
		t.Fatalf("depth-3 cone lit mismatch: %v", l3)
	}
}

func mustNet(t *testing.T, nl *netlist.Netlist, name string) netlist.NetID {
	t.Helper()
	id, ok := nl.NetByName(name)
	if !ok {
		t.Fatalf("no net %q", name)
	}
	return id
}

// The reference cone helpers are the original whole-graph implementations:
// a bool per node with a full scan, a recursive support walk sorted
// afterwards, and evaluation by simulating every node. They share no code
// with the cone-bounded helpers they check.

func refConeNodes(g *AIG, roots ...Lit) []int {
	seen := make([]bool, len(g.nodes))
	var stack []int
	push := func(n int) {
		if !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for _, r := range roots {
		push(r.Node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd := g.nodes[n]; nd.fan0 != noFanin {
			push(nd.fan0.Node())
			push(nd.fan1.Node())
		}
	}
	var out []int
	for n, s := range seen {
		if s {
			out = append(out, n)
		}
	}
	return out
}

func refSupport(g *AIG, l Lit) []int {
	seen := make([]bool, len(g.nodes))
	var out []int
	var walk func(n int)
	walk = func(n int) {
		if seen[n] {
			return
		}
		seen[n] = true
		nd := g.nodes[n]
		if nd.fan0 != noFanin {
			walk(nd.fan0.Node())
			walk(nd.fan1.Node())
			return
		}
		if nd.fan1 != noFanin {
			out = append(out, int(nd.fan1))
		}
	}
	walk(l.Node())
	slices.Sort(out)
	return out
}

func refEvalBool(g *AIG, assign []bool, l Lit) bool {
	words := make([]uint64, g.NumInputs())
	for i := range words {
		if i < len(assign) && assign[i] {
			words[i] = ^uint64(0)
		}
	}
	return Word(g.Sim64(words, nil), l)&1 == 1
}

// TestConeHelpersMatchReference checks ConeNodes, Support and EvalBool
// against the references on random AIGs of a few hundred nodes (so the
// bitsets span several words): single and multiple roots, negated and
// constant roots, inputs created after ANDs, short assignment slices, and
// calls repeated after the graph has grown.
func TestConeHelpersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		g := New()
		var lits []Lit
		for i := 0; i < 2+rng.Intn(10); i++ {
			lits = append(lits, g.Input(fmt.Sprintf("i%d", i)))
		}
		pick := func() Lit { return lits[rng.Intn(len(lits))] ^ Lit(rng.Intn(2)) }
		var early []Lit // roots checked again after the graph grows
		for phase := 0; phase < 3; phase++ {
			for j := 0; j < 100+rng.Intn(300); j++ {
				if rng.Intn(12) == 0 {
					lits = append(lits, g.Input(fmt.Sprintf("p%d_%d", phase, j)))
					continue
				}
				if l := g.And(pick(), pick()); l != False && l != True {
					lits = append(lits, l)
				}
			}
			roots := append([]Lit{False, True}, early...)
			for k := 0; k < 12; k++ {
				roots = append(roots, pick())
			}
			for _, r := range roots {
				checkCone(t, g, []Lit{r})
				if got, want := g.Support(r), refSupport(g, r); !slices.Equal(got, want) {
					t.Fatalf("trial %d: Support(%v) = %v, want %v", trial, r, got, want)
				}
				for a := 0; a < 4; a++ {
					assign := make([]bool, rng.Intn(g.NumInputs()+1))
					for i := range assign {
						assign[i] = rng.Intn(2) == 1
					}
					if got, want := g.EvalBool(assign, r), refEvalBool(g, assign, r); got != want {
						t.Fatalf("trial %d: EvalBool(%v, %v) = %v, want %v", trial, assign, r, got, want)
					}
				}
			}
			for k := 0; k < 6; k++ {
				set := make([]Lit, 1+rng.Intn(4))
				for i := range set {
					set[i] = pick()
				}
				checkCone(t, g, set)
			}
			checkCone(t, g, nil)
			early = append(early, pick(), pick())
		}
	}
}

func checkCone(t *testing.T, g *AIG, roots []Lit) {
	t.Helper()
	if got, want := g.ConeNodes(roots...), refConeNodes(g, roots...); !slices.Equal(got, want) {
		t.Fatalf("ConeNodes(%v) = %v, want %v", roots, got, want)
	}
}

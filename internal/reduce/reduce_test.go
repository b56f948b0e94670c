package reduce

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// mux4 builds the classic four-NAND mux: y = NAND(NAND(a,ns), NAND(b,s)),
// ns = NOT(s).
func mux4(t *testing.T) (*netlist.Netlist, map[string]netlist.NetID) {
	t.Helper()
	nl := netlist.New("mux")
	ids := map[string]netlist.NetID{}
	for _, n := range []string{"a", "b", "s"} {
		ids[n] = nl.MustNet(n)
		nl.MarkPI(ids[n])
	}
	for _, n := range []string{"ns", "t1", "t2", "y"} {
		ids[n] = nl.MustNet(n)
	}
	nl.MustGate("ginv", logic.Not, ids["ns"], ids["s"])
	nl.MustGate("gt1", logic.Nand, ids["t1"], ids["a"], ids["ns"])
	nl.MustGate("gt2", logic.Nand, ids["t2"], ids["b"], ids["s"])
	nl.MustGate("gy", logic.Nand, ids["y"], ids["t1"], ids["t2"])
	nl.MarkPO(ids["y"])
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl, ids
}

func TestApplyForwardPropagation(t *testing.T) {
	nl, ids := mux4(t)
	r, err := Apply(nl, map[netlist.NetID]logic.Value{ids["s"]: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	// s=0: ns=1, t2=1; y = NAND(t1, 1) -> effectively NOT(t1) where
	// t1 = NAND(a, 1) -> NOT(a). So y's effective cone is NOT over NOT.
	if v := r.Value(ids["ns"]); v != logic.One {
		t.Errorf("ns = %s", v)
	}
	if v := r.Value(ids["t2"]); v != logic.One {
		t.Errorf("t2 = %s", v)
	}
	if r.Value(ids["y"]).Known() {
		t.Error("y must stay live (depends on a)")
	}
	if k := r.GateKind(nl.Net(ids["y"]).Driver); k != logic.Not {
		t.Errorf("reduced y root = %s, want NOT", k)
	}
	if k := r.GateKind(nl.Net(ids["t1"]).Driver); k != logic.Not {
		t.Errorf("reduced t1 = %s, want NOT", k)
	}
	if r.AssignedCount() < 3 {
		t.Errorf("assigned %d nets", r.AssignedCount())
	}
	if r.RemovedGateCount() != 2 { // ginv and gt2 have constant outputs
		t.Errorf("removed %d gates", r.RemovedGateCount())
	}
}

func TestApplyBackwardImplication(t *testing.T) {
	// Pinning an AND output to 1 forces both inputs to 1.
	nl := netlist.New("t")
	a := nl.MustNet("a")
	b := nl.MustNet("b")
	nl.MarkPI(a)
	nl.MarkPI(b)
	y := nl.MustNet("y")
	nl.MustGate("g", logic.And, y, a, b)
	r, err := Apply(nl, map[netlist.NetID]logic.Value{y: logic.One})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value(a) != logic.One || r.Value(b) != logic.One {
		t.Errorf("backward: a=%s b=%s", r.Value(a), r.Value(b))
	}
}

func TestApplyBackwardThenForwardRipple(t *testing.T) {
	// y = NAND(x, x); pin y=0 -> x=1 -> z = NOT(x) = 0.
	nl := netlist.New("t")
	x := nl.MustNet("x")
	nl.MarkPI(x)
	y := nl.MustNet("y")
	z := nl.MustNet("z")
	nl.MustGate("g1", logic.Nand, y, x, x)
	nl.MustGate("g2", logic.Not, z, x)
	r, err := Apply(nl, map[netlist.NetID]logic.Value{y: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value(x) != logic.One || r.Value(z) != logic.Zero {
		t.Errorf("x=%s z=%s", r.Value(x), r.Value(z))
	}
}

func TestApplyConflict(t *testing.T) {
	// y = AND(a, b) with a pinned 0 and y pinned 1 is contradictory.
	nl := netlist.New("t")
	a := nl.MustNet("a")
	b := nl.MustNet("b")
	nl.MarkPI(a)
	nl.MarkPI(b)
	y := nl.MustNet("y")
	nl.MustGate("g", logic.And, y, a, b)
	_, err := Apply(nl, map[netlist.NetID]logic.Value{a: logic.Zero, y: logic.One})
	if !errors.Is(err, ErrConflict) {
		t.Errorf("err = %v, want ErrConflict", err)
	}
}

func TestApplyRejectsX(t *testing.T) {
	nl := netlist.New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	if _, err := Apply(nl, map[netlist.NetID]logic.Value{a: logic.X}); err == nil {
		t.Error("X assignment accepted")
	}
}

func TestConstantsDoNotCrossDFF(t *testing.T) {
	nl := netlist.New("t")
	d := nl.MustNet("d")
	nl.MarkPI(d)
	q := nl.MustNet("q")
	nl.MustGate("ff", logic.DFF, q, d)
	y := nl.MustNet("y")
	nl.MustGate("g", logic.Not, y, q)
	r, err := Apply(nl, map[netlist.NetID]logic.Value{d: logic.One})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value(q).Known() || r.Value(y).Known() {
		t.Error("constant leaked through the flip-flop")
	}
}

func TestViewOnConstNets(t *testing.T) {
	nl, ids := mux4(t)
	r, err := Apply(nl, map[netlist.NetID]logic.Value{ids["s"]: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	if r.DriverOf(ids["t2"]) != netlist.NoGate {
		t.Error("constant net must have no driver in the reduced view")
	}
	if v, ok := r.NetConst(ids["t2"]); !ok || v != logic.One {
		t.Error("NetConst wrong")
	}
	if _, ok := r.NetConst(ids["y"]); ok {
		t.Error("live net reported constant")
	}
	ins := r.GateInputs(nl.Net(ids["y"]).Driver, nil)
	if len(ins) != 1 || ins[0] != ids["t1"] {
		t.Errorf("reduced y inputs: %v", ins)
	}
}

func TestSimplifyGateTable(t *testing.T) {
	nl := netlist.New("t")
	n := make([]netlist.NetID, 6)
	for i := range n {
		n[i] = nl.MustNet(string(rune('a' + i)))
		nl.MarkPI(n[i])
	}
	mk := func(vals ...logic.Value) func(netlist.NetID) logic.Value {
		return func(id netlist.NetID) logic.Value {
			return vals[int(id)]
		}
	}
	cases := []struct {
		name     string
		kind     logic.Kind
		ins      []netlist.NetID
		vals     []logic.Value
		wantKind logic.Kind
		wantIns  int
		wantOut  logic.Value
	}{
		{"and drop 1", logic.And, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.One, logic.X}, logic.And, 2, logic.X},
		{"and to buf", logic.And, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.X, logic.One}, logic.Buf, 1, logic.X},
		{"and const", logic.And, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.Zero, logic.X}, logic.And, 0, logic.Zero},
		{"nand to not", logic.Nand, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.One, logic.X}, logic.Not, 1, logic.X},
		{"or to buf", logic.Or, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.Zero, logic.X}, logic.Buf, 1, logic.X},
		{"nor to not", logic.Nor, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.X, logic.Zero}, logic.Not, 1, logic.X},
		{"xor drops 0", logic.Xor, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.Zero, logic.X, logic.X}, logic.Xor, 2, logic.X},
		{"xor flips on 1", logic.Xor, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.One, logic.X, logic.X}, logic.Xnor, 2, logic.X},
		{"xor to buf", logic.Xor, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.Zero, logic.X}, logic.Buf, 1, logic.X},
		{"xor to not", logic.Xor, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.One, logic.X}, logic.Not, 1, logic.X},
		{"xnor to buf", logic.Xnor, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.One, logic.X}, logic.Buf, 1, logic.X},
		{"mux sel0", logic.Mux2, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.Zero, logic.X, logic.X}, logic.Buf, 1, logic.X},
		{"mux sel1", logic.Mux2, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.One, logic.X, logic.X}, logic.Buf, 1, logic.X},
		{"mux data 01 to buf(sel)", logic.Mux2, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.Zero, logic.One}, logic.Buf, 1, logic.X},
		{"mux data 10 to not(sel)", logic.Mux2, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.One, logic.Zero}, logic.Not, 1, logic.X},
		{"mux one data known keeps pins", logic.Mux2, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.One, logic.X}, logic.Mux2, 3, logic.X},
		{"aoi c0 to nand", logic.Aoi21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.X, logic.Zero}, logic.Nand, 2, logic.X},
		{"aoi c1 const", logic.Aoi21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.X, logic.One}, logic.Aoi21, 0, logic.Zero},
		{"aoi a1 to nor", logic.Aoi21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.One, logic.X, logic.X}, logic.Nor, 2, logic.X},
		{"aoi a0 to not", logic.Aoi21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.Zero, logic.X, logic.X}, logic.Not, 1, logic.X},
		{"oai c1 to nor", logic.Oai21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.X, logic.One}, logic.Nor, 2, logic.X},
		{"oai c0 const", logic.Oai21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.X, logic.Zero}, logic.Oai21, 0, logic.One},
		{"oai a0 to nand", logic.Oai21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.Zero, logic.X, logic.X}, logic.Nand, 2, logic.X},
		{"oai b1 to not", logic.Oai21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.X, logic.One, logic.X}, logic.Not, 1, logic.X},
		{"cascade aoi c0 a1", logic.Aoi21, []netlist.NetID{n[0], n[1], n[2]}, []logic.Value{logic.One, logic.X, logic.Zero}, logic.Not, 1, logic.X},
		{"untouched", logic.Nand, []netlist.NetID{n[0], n[1]}, []logic.Value{logic.X, logic.X}, logic.Nand, 2, logic.X},
		{"dff passthrough", logic.DFF, []netlist.NetID{n[0]}, []logic.Value{logic.One}, logic.DFF, 1, logic.X},
	}
	for _, c := range cases {
		kind, ins, out := SimplifyGate(c.kind, c.ins, mk(c.vals...))
		if out != c.wantOut {
			t.Errorf("%s: out=%s want %s", c.name, out, c.wantOut)
			continue
		}
		if c.wantOut.Known() {
			continue
		}
		if kind != c.wantKind || len(ins) != c.wantIns {
			t.Errorf("%s: got %s/%d pins, want %s/%d", c.name, kind, len(ins), c.wantKind, c.wantIns)
		}
	}
}

func TestMaterializeMux(t *testing.T) {
	nl, ids := mux4(t)
	r, err := Apply(nl, map[netlist.NetID]logic.Value{ids["s"]: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Materialize(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.NL.Validate(); err != nil {
		t.Fatalf("materialized invalid: %v", err)
	}
	// Constant nets gone; s (assigned) gone; y survives as NOT chain.
	if _, ok := m.NL.NetByName("s"); ok {
		t.Error("assigned net survived")
	}
	if _, ok := m.NL.NetByName("t2"); ok {
		t.Error("constant net survived")
	}
	y, ok := m.NL.NetByName("y")
	if !ok {
		t.Fatal("output lost")
	}
	if m.NL.Gate(m.NL.Net(y).Driver).Kind != logic.Not {
		t.Error("y driver not rewritten to NOT")
	}
	if !m.NL.Net(y).IsPO {
		t.Error("PO marking lost")
	}
}

func TestMaterializeTieOffs(t *testing.T) {
	// Mux with unknown select and one known data pin keeps the pin as a
	// tie-off constant input.
	nl := netlist.New("t")
	s := nl.MustNet("s")
	a := nl.MustNet("a")
	b := nl.MustNet("b")
	y := nl.MustNet("y")
	nl.MarkPI(s)
	nl.MarkPI(a)
	nl.MarkPI(b)
	nl.MarkPO(y)
	nl.MustGate("mx", logic.Mux2, y, s, a, b)
	r, err := Apply(nl, map[netlist.NetID]logic.Value{a: logic.One})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Materialize(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Const1 == netlist.NoNet {
		t.Fatal("tie-off net not created")
	}
	yid, _ := m.NL.NetByName("y")
	g := m.NL.Gate(m.NL.Net(yid).Driver)
	if g.Kind != logic.Mux2 || g.Inputs[1] != m.Const1 {
		t.Errorf("materialized mux: %s %v", g.Kind, g.Inputs)
	}
}

// evalAll computes every net's value for one full PI assignment by
// evaluating gates in topological order.
func evalAll(t *testing.T, nl *netlist.Netlist, piVals map[netlist.NetID]logic.Value) []logic.Value {
	t.Helper()
	order, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]logic.Value, nl.NetCount())
	for id, v := range piVals {
		vals[id] = v
	}
	for _, gid := range order {
		g := nl.Gate(gid)
		in := make([]logic.Value, len(g.Inputs))
		for i, id := range g.Inputs {
			in[i] = vals[id]
		}
		vals[g.Output] = logic.Eval(g.Kind, in)
	}
	return vals
}

// TestApplySoundOnRandomCircuits brute-forces small random combinational
// circuits: for every internal net and pin value, enumerate all PI vectors.
// If any vector realizes the pin, Apply must succeed and every value it
// infers must hold in every vector consistent with the pin. (Apply may miss
// unsatisfiable pins — it is unit propagation, not SAT — but it must never
// be wrong.)
func TestApplySoundOnRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := randomComb(rng)
		pis := nl.PIs()
		var vectors [][]logic.Value
		for mask := 0; mask < 1<<len(pis); mask++ {
			piVals := map[netlist.NetID]logic.Value{}
			for i, pi := range pis {
				piVals[pi] = logic.FromBool(mask>>i&1 == 1)
			}
			vectors = append(vectors, evalAll(t, nl, piVals))
		}
		for gi := 0; gi < nl.GateCount(); gi++ {
			pin := nl.Gate(netlist.GateID(gi)).Output
			for _, v := range []logic.Value{logic.Zero, logic.One} {
				var consistent [][]logic.Value
				for _, vec := range vectors {
					if vec[pin] == v {
						consistent = append(consistent, vec)
					}
				}
				r, err := Apply(nl, map[netlist.NetID]logic.Value{pin: v})
				if len(consistent) > 0 && err != nil {
					t.Fatalf("seed %d: net %s=%s reachable but Apply conflicts: %v",
						seed, nl.NetName(pin), v, err)
				}
				if err != nil {
					continue
				}
				for id := 0; id < nl.NetCount(); id++ {
					iv := r.Value(netlist.NetID(id))
					if !iv.Known() {
						continue
					}
					for _, vec := range consistent {
						if vec[id] != iv {
							t.Fatalf("seed %d: pin %s=%s inferred %s=%s but a consistent vector has %s",
								seed, nl.NetName(pin), v, nl.NetName(netlist.NetID(id)), iv, vec[id])
						}
					}
				}
			}
		}
	}
}

func randomComb(rng *rand.Rand) *netlist.Netlist {
	nl := netlist.New("rnd")
	var nets []netlist.NetID
	for i := 0; i < 4; i++ {
		id := nl.MustNet("pi" + string(rune('0'+i)))
		nl.MarkPI(id)
		nets = append(nets, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Not, logic.Buf, logic.Mux2, logic.Aoi21, logic.Oai21, logic.Xor, logic.Xnor}
	for i := 0; i < 15; i++ {
		k := kinds[rng.Intn(len(kinds))]
		arity := 2
		if n, fixed := k.FixedArity(); fixed {
			arity = n
		}
		ins := make([]netlist.NetID, arity)
		perm := rng.Perm(len(nets))
		for j := range ins {
			// Distinct nets per pin to keep both output values reachable.
			ins[j] = nets[perm[j%len(perm)]]
		}
		out := nl.MustNet("n" + string(rune('a'+i)))
		nl.MustGate("g"+string(rune('a'+i)), k, out, ins...)
		nets = append(nets, out)
	}
	return nl
}

// chainWithDFF builds a linear chain a -> i0 -> i1 -> ... with a DFF splice:
// a drives NOT i0, i0 drives NOT i1, i1 drives DFF q, q drives NOT i2,
// i2 drives NOT i3.
func chainWithDFF(t *testing.T) (*netlist.Netlist, map[string]netlist.NetID) {
	t.Helper()
	nl := netlist.New("chain")
	ids := map[string]netlist.NetID{}
	net := func(n string) netlist.NetID {
		ids[n] = nl.MustNet(n)
		return ids[n]
	}
	a := net("a")
	nl.MarkPI(a)
	nl.MustGate("g0", logic.Not, net("i0"), a)
	nl.MustGate("g1", logic.Not, net("i1"), ids["i0"])
	nl.MustGate("gq", logic.DFF, net("q"), ids["i1"])
	nl.MustGate("g2", logic.Not, net("i2"), ids["q"])
	nl.MustGate("g3", logic.Not, net("i3"), ids["i2"])
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl, ids
}

// TestApplyMalformedGateIsAnError pins the lenient-netlist hardening: a
// bad-arity gate (legal in a leniently parsed netlist) reached by
// propagation must surface as a wrapped ErrMalformedGate, not a panic from
// logic.Eval.
func TestApplyMalformedGateIsAnError(t *testing.T) {
	nl := netlist.New("lenient")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	y := nl.MustNet("y")
	// AddGateLenient admits the NAND/1 that MustGate would reject.
	nl.AddGateLenient("g1", logic.Nand, y, a)
	_, err := Apply(nl, map[netlist.NetID]logic.Value{a: logic.Zero})
	if err == nil {
		t.Fatal("Apply evaluated a NAND/1 without error")
	}
	if !errors.Is(err, ErrMalformedGate) {
		t.Fatalf("err = %v, want ErrMalformedGate", err)
	}
	for _, frag := range []string{"g1", "NAND", "1 inputs"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

// TestTrySimplifyGateBadArity pins the non-panicking simplify entry point:
// bad arities error, well-formed gates match SimplifyGate exactly.
func TestTrySimplifyGateBadArity(t *testing.T) {
	ins := []netlist.NetID{1}
	if _, _, _, err := TrySimplifyGate(logic.Nand, ins, nil); !errors.Is(err, ErrMalformedGate) {
		t.Fatalf("TrySimplifyGate(NAND/1) err = %v, want ErrMalformedGate", err)
	}
	val := func(n netlist.NetID) logic.Value {
		if n == 1 {
			return logic.Zero
		}
		return logic.X
	}
	ins2 := []netlist.NetID{1, 2}
	k, rem, out, err := TrySimplifyGate(logic.And, ins2, val)
	if err != nil {
		t.Fatal(err)
	}
	wk, wrem, wout := SimplifyGate(logic.And, ins2, val)
	if k != wk || out != wout || len(rem) != len(wrem) {
		t.Fatalf("TrySimplifyGate = (%v %v %v), SimplifyGate = (%v %v %v)", k, rem, out, wk, wrem, wout)
	}
}

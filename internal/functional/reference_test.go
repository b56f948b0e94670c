package functional

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/reduce"
)

// referenceFunction computes CanonicalFunction's key by other means: a
// recursive walk that re-expands a net reached again with more depth left
// finds the cone, and one logic.Eval per gate per minterm, through maps,
// fills the truth table. It shares only canonicalize with the code under
// test.
func referenceFunction(v netlist.View, net netlist.NetID, depth, maxSupport int) (string, bool) {
	if _, isConst := v.NetConst(net); isConst {
		return "", false
	}
	if d := v.DriverOf(net); d == netlist.NoGate || !v.GateKind(d).IsCombinational() {
		return "", false
	}
	combDriver := func(n netlist.NetID) bool {
		if _, isConst := v.NetConst(n); isConst {
			return false
		}
		d := v.DriverOf(n)
		return d != netlist.NoGate && v.GateKind(d).IsCombinational()
	}
	leafSet := map[netlist.NetID]bool{}
	visited := map[netlist.NetID]int{} // net -> deepest remaining budget seen
	var walk func(n netlist.NetID, budget int)
	walk = func(n netlist.NetID, budget int) {
		if b, ok := visited[n]; ok && b >= budget {
			return
		}
		visited[n] = budget
		if budget <= 0 || !combDriver(n) {
			leafSet[n] = true
			return
		}
		for _, in := range v.GateInputs(v.DriverOf(n), nil) {
			walk(in, budget-1)
		}
	}
	walk(net, depth)
	// A net first cut as a leaf and later expanded with a larger budget is
	// no leaf.
	for n := range leafSet {
		if visited[n] > 0 && combDriver(n) {
			delete(leafSet, n)
		}
	}
	var leaves []netlist.NetID
	for n := range leafSet {
		leaves = append(leaves, n)
	}
	if len(leaves) > maxSupport {
		return "", false
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })

	// The cone's gates in evaluation order: DFS postorder from the root,
	// stopping at leaves.
	type coneGate struct {
		kind logic.Kind
		ins  []netlist.NetID
		out  netlist.NetID
	}
	var order []coneGate
	seen := map[netlist.NetID]bool{}
	var build func(n netlist.NetID)
	build = func(n netlist.NetID) {
		if seen[n] || leafSet[n] {
			return
		}
		seen[n] = true
		d := v.DriverOf(n)
		ins := v.GateInputs(d, nil)
		for _, in := range ins {
			build(in)
		}
		order = append(order, coneGate{kind: v.GateKind(d), ins: ins, out: n})
	}
	build(net)

	k := len(leaves)
	size := 1 << uint(k)
	tt := make([]byte, (size+7)/8)
	vals := map[netlist.NetID]logic.Value{}
	for m := 0; m < size; m++ {
		for i, leaf := range leaves {
			vals[leaf] = logic.FromBool(m>>uint(i)&1 == 1)
		}
		for _, g := range order {
			var in []logic.Value
			for _, n := range g.ins {
				if c, isConst := v.NetConst(n); isConst {
					in = append(in, c)
					continue
				}
				in = append(in, vals[n])
			}
			vals[g.out] = logic.Eval(g.kind, in)
		}
		if vals[net] == logic.One {
			tt[m/8] |= 1 << uint(m%8)
		}
	}
	tt = canonicalize(tt, k)
	return string(tt) + ":" + string(rune('0'+k)), true
}

// randomCombCircuit builds a random netlist over nPI primary inputs and
// nGates gates of every combinational kind at random legal arities, with a
// few flip-flops as cone boundaries. It returns the netlist and its driven
// nets.
func randomCombCircuit(rng *rand.Rand, nPI, nGates int) (*netlist.Netlist, []netlist.NetID) {
	nl := netlist.New("rand")
	var nets []netlist.NetID
	for i := 0; i < nPI; i++ {
		id := nl.MustNet("pi" + strconv.Itoa(i))
		nl.MarkPI(id)
		nets = append(nets, id)
	}
	kinds := []logic.Kind{logic.Buf, logic.Not, logic.And, logic.Nand, logic.Or, logic.Nor,
		logic.Xor, logic.Xnor, logic.Mux2, logic.Aoi21, logic.Oai21}
	var driven []netlist.NetID
	for i := 0; i < nGates; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		if rng.Intn(12) == 0 {
			kind = logic.DFF
		}
		n, fixed := kind.FixedArity()
		if !fixed {
			n = 2 + rng.Intn(3)
		}
		ins := make([]netlist.NetID, n)
		for j := range ins {
			// Prefer recent nets, so cones grow deep and reconverge.
			lo := max(0, len(nets)-12)
			ins[j] = nets[lo+rng.Intn(len(nets)-lo)]
		}
		out := nl.MustNet("n" + strconv.Itoa(i))
		nl.MustGate("g"+strconv.Itoa(i), kind, out, ins...)
		nets = append(nets, out)
		driven = append(driven, out)
	}
	return nl, driven
}

// TestCanonicalFunctionMatchesEval checks the AIG-lowered, bit-parallel key
// against the per-minterm logic.Eval reference on random circuits, unreduced
// and under reduce.Apply, at depths 1 to 6. Every support from 1 to 10 must
// come up on each kind of view. It then checks the one constant a reduced
// view keeps as a gate input: a MUX2 whose select is live and whose data pin
// became constant keeps all three pins, and the constant pin stays in the
// support, and in the key's suffix, as a variable the function ignores.
func TestCanonicalFunctionMatchesEval(t *testing.T) {
	const maxSupport = 10
	check := func(what string, v netlist.View, n netlist.NetID, depth int) (string, bool) {
		t.Helper()
		got, gotOK := CanonicalFunction(v, n, depth, maxSupport)
		want, wantOK := referenceFunction(v, n, depth, maxSupport)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s depth %d net %d: key %q (%v), reference %q (%v)", what, depth, n, got, gotOK, want, wantOK)
		}
		return got, gotOK
	}
	rng := rand.New(rand.NewSource(26))
	seen := [2][maxSupport + 1]int{} // view kind (0 base, 1 reduced) -> support -> keys
	for trial := 0; trial < 20; trial++ {
		nl, driven := randomCombCircuit(rng, 3+rng.Intn(6), 30+rng.Intn(30))
		if err := nl.Validate(); err != nil {
			t.Fatal(err)
		}
		views := []netlist.View{nl}
		assign := map[netlist.NetID]logic.Value{}
		for i := 0; i < 1+rng.Intn(2); i++ {
			assign[driven[rng.Intn(len(driven))]] = logic.FromBool(rng.Intn(2) == 1)
		}
		if red, err := reduce.Apply(nl, assign); err == nil {
			views = append(views, red)
		}
		for vi, v := range views {
			for depth := 1; depth <= 6; depth++ {
				for _, n := range driven {
					if key, ok := check(fmt.Sprintf("trial %d view %d", trial, vi), v, n, depth); ok {
						seen[vi][key[len(key)-1]-'0']++
					}
				}
			}
		}
	}
	for vi := range seen {
		for k := 1; k <= maxSupport; k++ {
			if seen[vi][k] == 0 {
				t.Errorf("view kind %d: no key with support %d", vi, k)
			}
		}
	}

	nl := netlist.New("cmux")
	pi := func(name string) netlist.NetID {
		id := nl.MustNet(name)
		nl.MarkPI(id)
		return id
	}
	p, q, s, b := pi("p"), pi("q"), pi("s"), pi("b")
	a, y := nl.MustNet("a"), nl.MustNet("y")
	nl.MustGate("ga", logic.And, a, p, q)
	nl.MustGate("gy", logic.Mux2, y, s, a, b)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	red, err := reduce.Apply(nl, map[netlist.NetID]logic.Value{p: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	if ins := red.GateInputs(red.DriverOf(y), nil); len(ins) != 3 {
		t.Fatalf("reduced MUX2 keeps pins %v, want all three", ins)
	}
	for depth := 1; depth <= 3; depth++ {
		if key, ok := check("constant MUX2 pin", red, y, depth); !ok || key[len(key)-2:] != ":3" {
			t.Errorf("depth %d: key %q (%v), want support s, a (constant) and b", depth, key, ok)
		}
	}
}

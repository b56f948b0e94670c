package cone

import (
	"maps"
	"math/rand"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/reduce"
)

// chainNet builds: bit = NAND(x1, x2) where x1 = NAND(a,b), x2 = NAND(c,d),
// a..d primary inputs — a uniform two-level cone.
func chainNet(t *testing.T) (*netlist.Netlist, netlist.NetID) {
	t.Helper()
	nl := netlist.New("chain")
	var pis []netlist.NetID
	for _, n := range []string{"a", "b", "c", "d"} {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		pis = append(pis, id)
	}
	x1 := nl.MustNet("x1")
	x2 := nl.MustNet("x2")
	bit := nl.MustNet("bit")
	nl.MustGate("g1", logic.Nand, x1, pis[0], pis[1])
	nl.MustGate("g2", logic.Nand, x2, pis[2], pis[3])
	nl.MustGate("g3", logic.Nand, bit, x1, x2)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl, bit
}

func TestInterner(t *testing.T) {
	it := NewInterner()
	a := it.Intern("foo")
	b := it.Intern("bar")
	if a == b {
		t.Fatal("distinct strings share an ID")
	}
	if it.Intern("foo") != a {
		t.Error("re-interning changed the ID")
	}
	if it.String(a) != "foo" || it.String(b) != "bar" {
		t.Error("String lookup wrong")
	}
	if it.String(KeyID(99)) != "<nokey>" {
		t.Error("out-of-range KeyID")
	}
	if it.Len() != 3 { // leaf + two atoms
		t.Errorf("Len = %d", it.Len())
	}
	if it.Intern(leafToken) != LeafKey {
		t.Error("interning the leaf token must yield LeafKey")
	}
	if it.String(LeafKey) != leafToken {
		t.Errorf("leaf renders %q", it.String(LeafKey))
	}
}

func TestInternNodeHashConsing(t *testing.T) {
	it := NewInterner()
	n1 := it.InternNode(logic.Nand, []KeyID{LeafKey, LeafKey})
	n2 := it.InternNode(logic.Nand, []KeyID{LeafKey, LeafKey})
	if n1 != n2 {
		t.Error("identical tuples must hash-cons to one ID")
	}
	if it.InternNode(logic.Nor, []KeyID{LeafKey, LeafKey}) == n1 {
		t.Error("different kinds share an ID")
	}
	if it.InternNode(logic.Nand, []KeyID{LeafKey}) == n1 {
		t.Error("different arities share an ID")
	}
	// Tuple identity is order-insensitive (children are sorted).
	x := it.InternNode(logic.Not, []KeyID{LeafKey})
	ab := it.InternNode(logic.Nand, []KeyID{x, n1})
	ba := it.InternNode(logic.Nand, []KeyID{n1, x})
	if ab != ba {
		t.Error("child order changed the interned ID")
	}
	if got := it.String(n1); got != "(..N)" {
		t.Errorf("render = %q, want (..N)", got)
	}
	if got := it.String(ab); got != "((..N)(.I)N)" {
		t.Errorf("render = %q, want ((..N)(.I)N)", got)
	}
}

// TestMemoDepthNotTruncated: the memo key stores the full depth. The old
// int8 field wrapped above 127, aliasing (net, d) with (net, d-256) and
// returning the shallow key for the deep expansion.
func TestMemoDepthNotTruncated(t *testing.T) {
	nl := netlist.New("t")
	prev := nl.MustNet("pi")
	nl.MarkPI(prev)
	var last netlist.NetID
	for i := 0; i < 300; i++ {
		last = nl.MustNet("n" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		nl.MustGate("g"+string(rune('a'+i%26))+string(rune('0'+i/26)), logic.Not, last, prev)
		prev = last
	}
	it := NewInterner()
	b := NewBuilder(nl, it, 300)
	shallow := b.SubtreeKey(last, 2)
	deep := b.SubtreeKey(last, 258) // int8(258) == 2: the old memo aliased these
	if shallow == deep {
		t.Fatal("depth-258 key aliased with depth-2 key")
	}
	if again := b.SubtreeKey(last, 258); again != deep {
		t.Error("memoized deep key unstable")
	}
}

func TestNewBuilderDepthClamp(t *testing.T) {
	nl, _ := chainNet(t)
	if d := NewBuilder(nl, NewInterner(), -3).Depth(); d != DefaultDepth {
		t.Errorf("negative depth -> %d, want DefaultDepth", d)
	}
	if d := NewBuilder(nl, NewInterner(), MaxDepth+1).Depth(); d != MaxDepth {
		t.Errorf("huge depth -> %d, want MaxDepth", d)
	}
}

func TestBitCone(t *testing.T) {
	nl, bit := chainNet(t)
	it := NewInterner()
	b := NewBuilder(nl, it, 4)
	bc := b.Bit(bit)
	if bc == nil {
		t.Fatal("no cone for driven net")
	}
	if bc.RootKind != logic.Nand {
		t.Errorf("root kind %s", bc.RootKind)
	}
	if len(bc.Subtrees) != 2 {
		t.Fatalf("want 2 second-level subtrees, got %d", len(bc.Subtrees))
	}
	// Both subtrees are NAND over two leaves: identical keys.
	if bc.Subtrees[0].Key != bc.Subtrees[1].Key {
		t.Errorf("uniform subtrees got different keys: %q vs %q",
			it.String(bc.Subtrees[0].Key), it.String(bc.Subtrees[1].Key))
	}
	if it.String(bc.Subtrees[0].Key) != "(..N)" {
		t.Errorf("subtree key = %q, want (..N)", it.String(bc.Subtrees[0].Key))
	}
	if it.String(bc.FullKey) != "((..N)(..N)N)" {
		t.Errorf("full key = %q", it.String(bc.FullKey))
	}
}

func TestBitNilCases(t *testing.T) {
	nl := netlist.New("t")
	pi := nl.MustNet("pi")
	nl.MarkPI(pi)
	q := nl.MustNet("q")
	d := nl.MustNet("d")
	nl.MustGate("inv", logic.Not, d, pi)
	nl.MustGate("ff", logic.DFF, q, d)
	it := NewInterner()
	b := NewBuilder(nl, it, 4)
	if b.Bit(pi) != nil {
		t.Error("primary input must have no cone")
	}
	if b.Bit(q) != nil {
		t.Error("FF output must have no cone")
	}
	if b.Bit(d) == nil {
		t.Error("driven net must have a cone")
	}
}

func TestDepthLimiting(t *testing.T) {
	// A chain of 6 inverters; keys must stop growing beyond the depth.
	nl := netlist.New("t")
	prev := nl.MustNet("pi")
	nl.MarkPI(prev)
	var last netlist.NetID
	for i := 0; i < 6; i++ {
		last = nl.MustNet(string(rune('a' + i)))
		nl.MustGate(string(rune('p'+i)), logic.Not, last, prev)
		prev = last
	}
	it := NewInterner()
	d2 := NewBuilder(nl, it, 2).Bit(last)
	d4 := NewBuilder(nl, it, 4).Bit(last)
	k2 := it.String(d2.Subtrees[0].Key)
	k4 := it.String(d4.Subtrees[0].Key)
	if k2 != "(.I)" {
		t.Errorf("depth-2 subtree key = %q", k2)
	}
	if k4 != "(((.I)I)I)" {
		t.Errorf("depth-4 subtree key = %q", k4)
	}
}

// TestFaninPermutationInvariance: the hash key must be identical when a
// gate's input pins are permuted (fanins are sorted lexicographically).
func TestFaninPermutationInvariance(t *testing.T) {
	build := func(perm []int) string {
		nl := netlist.New("t")
		var leaves []netlist.NetID
		for _, n := range []string{"a", "b", "c"} {
			id := nl.MustNet(n)
			nl.MarkPI(id)
			leaves = append(leaves, id)
		}
		// Three structurally different children so permutation matters.
		x := nl.MustNet("x")
		nl.MustGate("gx", logic.Not, x, leaves[0])
		y := nl.MustNet("y")
		nl.MustGate("gy", logic.Nand, y, leaves[0], leaves[1])
		z := nl.MustNet("z")
		nl.MustGate("gz", logic.Nor, z, leaves[1], leaves[2])
		kids := []netlist.NetID{x, y, z}
		bit := nl.MustNet("bit")
		nl.MustGate("gr", logic.And, bit, kids[perm[0]], kids[perm[1]], kids[perm[2]])
		it := NewInterner()
		bc := NewBuilder(nl, it, 4).Bit(bit)
		return it.String(bc.FullKey)
	}
	want := build([]int{0, 1, 2})
	perms := [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		if got := build(p); got != want {
			t.Errorf("perm %v: key %q != %q", p, got, want)
		}
	}
}

// TestReconvergence: a net feeding two pins unfolds as a tree (the shared
// subtree appears in both branches).
func TestReconvergence(t *testing.T) {
	nl := netlist.New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	s := nl.MustNet("s")
	nl.MustGate("gs", logic.Not, s, a)
	bit := nl.MustNet("bit")
	nl.MustGate("gr", logic.And, bit, s, s)
	it := NewInterner()
	bc := NewBuilder(nl, it, 4).Bit(bit)
	if got := it.String(bc.FullKey); got != "((.I)(.I)A)" {
		t.Errorf("full key = %q", got)
	}
}

func TestSubtreeNets(t *testing.T) {
	nl, bit := chainNet(t)
	it := NewInterner()
	b := NewBuilder(nl, it, 4)
	bc := b.Bit(bit)
	nets := b.SubtreeNets(bc.Subtrees[0].Root, 3)
	// Subtree x1 (or x2): root + two leaves.
	if len(nets) != 3 {
		t.Errorf("subtree nets = %d, want 3", len(nets))
	}
	if !nets[bc.Subtrees[0].Root] {
		t.Error("root missing from subtree nets")
	}
	// Depth 0 keeps only the root.
	if got := b.SubtreeNets(bc.Subtrees[0].Root, 0); len(got) != 1 {
		t.Errorf("depth-0 nets = %d", len(got))
	}
}

// countingView is a netlist.View that counts its GateInputs calls.
type countingView struct {
	netlist.View
	gateInputs int
}

func (v *countingView) GateInputs(g netlist.GateID, buf []netlist.NetID) []netlist.NetID {
	v.gateInputs++
	return v.View.GateInputs(g, buf)
}

// diamondChain appends levels reconvergent diamonds to nl, starting at a new
// primary input: each level is the AND of a NOT and a BUF of the previous
// level's net, so the returned end net reaches the input along 2^levels
// paths through 3*levels gates and 2*levels levels of logic.
func diamondChain(nl *netlist.Netlist, levels int) netlist.NetID {
	prev := nl.MustNet("d0")
	nl.MarkPI(prev)
	for i := 1; i <= levels; i++ {
		sfx := itoa(i)
		inv, buf, and := nl.MustNet("dn"+sfx), nl.MustNet("db"+sfx), nl.MustNet("d"+sfx)
		nl.MustGate("gn"+sfx, logic.Not, inv, prev)
		nl.MustGate("gb"+sfx, logic.Buf, buf, prev)
		nl.MustGate("ga"+sfx, logic.And, and, inv, buf)
		prev = and
	}
	return prev
}

// TestSubtreeNetsReconvergent pins the level-order walk of SubtreeNets: on
// a chain of 20 diamonds, whose end reaches the input along 2^20 paths, it
// collects the whole cone with at most one GateInputs call per net. A walk
// that recursed once per path made over a million.
func TestSubtreeNetsReconvergent(t *testing.T) {
	nl := netlist.New("diamonds")
	end := diamondChain(nl, 20)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	view := &countingView{View: nl}
	nets := NewBuilder(view, NewInterner(), 42).SubtreeNets(end, 42)
	if len(nets) != nl.NetCount() {
		t.Errorf("SubtreeNets holds %d nets, want all %d", len(nets), nl.NetCount())
	}
	if view.gateInputs > nl.NetCount() {
		t.Errorf("SubtreeNets made %d GateInputs calls on %d nets", view.gateInputs, nl.NetCount())
	}
}

// pathNets is the definition SubtreeNets implements, walked once per path:
// net, and for a net with a combinational driver under view, the nets of
// each input's subtree one level shallower.
func pathNets(view netlist.View, net netlist.NetID, depth int, out map[netlist.NetID]bool) {
	out[net] = true
	if depth <= 0 {
		return
	}
	if _, isConst := view.NetConst(net); isConst {
		return
	}
	g := view.DriverOf(net)
	if g == netlist.NoGate || !view.GateKind(g).IsCombinational() {
		return
	}
	for _, in := range view.GateInputs(g, nil) {
		pathNets(view, in, depth-1, out)
	}
}

// TestSubtreeNetsMatchesPathWalk checks SubtreeNets and CollectSubtreeNets
// against pathNets on random circuits, unreduced and under a constant, at
// depths 0 to 5. CollectSubtreeNets gathers two roots into one set, so a
// net the first root already reached must still be expanded for the second.
func TestSubtreeNetsMatchesPathWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		nl, driven := randCircuit(rng, 5, 40)
		if err := nl.Validate(); err != nil {
			t.Fatal(err)
		}
		views := []netlist.View{nl}
		if red, err := reduce.Apply(nl, map[netlist.NetID]logic.Value{netlist.NetID(rng.Intn(5)): logic.Zero}); err == nil {
			views = append(views, red)
		}
		for vi, view := range views {
			b := NewBuilder(view, NewInterner(), DefaultDepth)
			for depth := 0; depth <= 5; depth++ {
				for _, n := range driven {
					want := map[netlist.NetID]bool{}
					pathNets(view, n, depth, want)
					if got := b.SubtreeNets(n, depth); !maps.Equal(got, want) {
						t.Fatalf("trial %d view %d depth %d net %s: SubtreeNets %v, want %v",
							trial, vi, depth, nl.NetName(n), got, want)
					}
				}
				r1, r2 := driven[rng.Intn(len(driven))], driven[rng.Intn(len(driven))]
				got, want := map[netlist.NetID]bool{}, map[netlist.NetID]bool{}
				b.CollectSubtreeNets(r1, depth, got)
				b.CollectSubtreeNets(r2, depth, got)
				pathNets(view, r1, depth, want)
				pathNets(view, r2, depth, want)
				if !maps.Equal(got, want) {
					t.Fatalf("trial %d view %d depth %d roots %s, %s: CollectSubtreeNets %v, want %v",
						trial, vi, depth, nl.NetName(r1), nl.NetName(r2), got, want)
				}
			}
		}
	}
}

func TestMemoizationConsistency(t *testing.T) {
	// Same (net, depth) must give the same key across calls; different
	// depths may differ.
	nl, bit := chainNet(t)
	it := NewInterner()
	b := NewBuilder(nl, it, 4)
	bc := b.Bit(bit)
	k1 := b.SubtreeKey(bc.Subtrees[0].Root, 3)
	k2 := b.SubtreeKey(bc.Subtrees[0].Root, 3)
	if k1 != k2 {
		t.Error("memoized key differs")
	}
}

// randomDAG builds a random small combinational netlist and returns it with
// its internal nets; used by the fuzz-like determinism test.
func randomDAG(rng *rand.Rand) (*netlist.Netlist, []netlist.NetID) {
	nl := netlist.New("rnd")
	var nets []netlist.NetID
	for i := 0; i < 4; i++ {
		id := nl.MustNet("pi" + string(rune('0'+i)))
		nl.MarkPI(id)
		nets = append(nets, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not}
	var internal []netlist.NetID
	for i := 0; i < 12; i++ {
		k := kinds[rng.Intn(len(kinds))]
		n := 2
		if k == logic.Not {
			n = 1
		} else if rng.Intn(3) == 0 {
			n = 3
		}
		ins := make([]netlist.NetID, n)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		out := nl.MustNet("n" + string(rune('a'+i)))
		nl.MustGate("g"+string(rune('a'+i)), k, out, ins...)
		nets = append(nets, out)
		internal = append(internal, out)
	}
	return nl, internal
}

func TestKeyDeterminismOnRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		nl, internal := randomDAG(rand.New(rand.NewSource(seed)))
		it1 := NewInterner()
		it2 := NewInterner()
		b1 := NewBuilder(nl, it1, 4)
		b2 := NewBuilder(nl, it2, 4)
		for _, n := range internal {
			c1, c2 := b1.Bit(n), b2.Bit(n)
			if (c1 == nil) != (c2 == nil) {
				t.Fatalf("seed %d: nil disagreement", seed)
			}
			if c1 == nil {
				continue
			}
			if it1.String(c1.FullKey) != it2.String(c2.FullKey) {
				t.Fatalf("seed %d: keys differ for %s", seed, nl.NetName(n))
			}
		}
	}
}

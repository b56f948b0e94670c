package cone_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gatewords/internal/bench"
	"gatewords/internal/cone"
	"gatewords/internal/group"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// randomNetlist builds a random circuit of nGates gates over 6 primary
// inputs, each gate reading earlier nets, with about one DFF in ten. It
// returns the driven nets.
func randomNetlist(rng *rand.Rand, nGates int) (*netlist.Netlist, []netlist.NetID) {
	nl := netlist.New("rand")
	var nets, driven []netlist.NetID
	for i := 0; i < 6; i++ {
		id := nl.MustNet(fmt.Sprintf("pi%d", i))
		nl.MarkPI(id)
		nets = append(nets, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not, logic.Mux2, logic.Aoi21}
	for i := 0; i < nGates; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		if rng.Intn(10) == 0 {
			kind = logic.DFF
		}
		arity := 2 + rng.Intn(2)
		if n, fixed := kind.FixedArity(); fixed {
			arity = n
		}
		ins := make([]netlist.NetID, arity)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		out := nl.MustNet(fmt.Sprintf("n%d", i))
		nl.MustGate(fmt.Sprintf("g%d", i), kind, out, ins...)
		nets = append(nets, out)
		driven = append(driven, out)
	}
	return nl, driven
}

// requireSameCone asserts that got, from the reused builder, is the cone
// want from a fresh builder: same net, root kind, subtree roots and keys in
// order, and full key.
func requireSameCone(t *testing.T, what string, got, want *cone.BitCone) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: cone %v, want %v", what, got, want)
	}
	if got == nil {
		return
	}
	if got.Net != want.Net || got.RootGate != want.RootGate || got.RootKind != want.RootKind ||
		got.FullKey != want.FullKey || len(got.Subtrees) != len(want.Subtrees) {
		t.Fatalf("%s: cone %+v, want %+v", what, *got, *want)
	}
	for i := range got.Subtrees {
		if got.Subtrees[i] != want.Subtrees[i] {
			t.Fatalf("%s: subtree %d is %+v, want %+v", what, i, got.Subtrees[i], want.Subtrees[i])
		}
	}
}

// resetCoverage counts the cases a run of checkResetMatchesFresh reached.
type resetCoverage struct {
	afterGrowth int // groups keyed right after one that grew the probe table
	afterAtom   int // groups keyed right after an atom was interned
}

// checkResetMatchesFresh keys groups in sequence with one builder, reset
// between groups, and requires every group to match a fresh
// NewBuilder(nl, NewInterner(), depth): each BitCone, the interner's Len,
// and the ID of an atom interned after the group's keys. Every third group
// also interns a private atom before the next reset.
func checkResetMatchesFresh(t *testing.T, name string, nl *netlist.Netlist, groups [][]netlist.NetID, depth int, cov *resetCoverage) {
	t.Helper()
	it := cone.NewInterner()
	reused := cone.NewBuilder(nl, it, depth)
	grew, atom := false, false
	for gi, nets := range groups {
		if gi > 0 {
			reused.Reset()
		}
		if grew {
			cov.afterGrowth++
		}
		if atom {
			cov.afterAtom++
		}
		freshIt := cone.NewInterner()
		fresh := cone.NewBuilder(nl, freshIt, depth)
		for _, n := range nets {
			what := fmt.Sprintf("%s depth %d group %d net %s", name, depth, gi, nl.NetName(n))
			requireSameCone(t, what, reused.Bit(n), fresh.Bit(n))
		}
		if it.Len() != freshIt.Len() {
			t.Fatalf("%s depth %d group %d: reused interner holds %d keys, fresh %d", name, depth, gi, it.Len(), freshIt.Len())
		}
		if got, want := it.Intern("shared-atom"), freshIt.Intern("shared-atom"); got != want {
			t.Fatalf("%s depth %d group %d: atom ID %d, fresh %d", name, depth, gi, got, want)
		}
		// A fresh interner's probe table holds 64 slots and grows past 48
		// keys; the reused one kept every slot it grew to.
		grew = it.Len() > 48
		atom = gi%3 == 0
		if atom {
			it.Intern(fmt.Sprintf("private-atom-%d", gi))
		}
	}
}

// TestBuilderResetMatchesFresh pins Builder.Reset and Interner.Reset: one
// builder reused across a sequence of groups, reset before each, must key
// every group exactly as a fresh builder and interner would. Random circuits
// key random, overlapping net sets (so stale memo entries would be read
// back) at the default depth and above it; the first set is the whole
// circuit, which grows the probe table before the small sets that follow.
// The b14a analog keys its adjacency groups in file order, as
// identification does.
func TestBuilderResetMatchesFresh(t *testing.T) {
	var cov resetCoverage
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl, driven := randomNetlist(rng, 40+rng.Intn(80))
		groups := [][]netlist.NetID{driven}
		for len(groups) < 12 {
			var g []netlist.NetID
			for _, n := range driven {
				if rng.Intn(6) == 0 {
					g = append(g, n)
				}
			}
			groups = append(groups, g)
		}
		for _, depth := range []int{2, cone.DefaultDepth, 7} {
			checkResetMatchesFresh(t, fmt.Sprintf("seed %d", seed), nl, groups, depth, &cov)
		}
	}
	if testing.Short() {
		t.Log("skipping the b14a analog in -short mode")
	} else {
		p, ok := bench.ProfileByName("b14a")
		if !ok {
			t.Fatal("no b14a profile")
		}
		gen, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		groups := group.Adjacent(gen.NL, group.Options{})
		checkResetMatchesFresh(t, "b14a", gen.NL, groups, cone.DefaultDepth, &cov)
	}
	if cov.afterGrowth == 0 || cov.afterAtom == 0 {
		t.Errorf("coverage: %d groups after a probe-table growth, %d after an atom", cov.afterGrowth, cov.afterAtom)
	}
}

package core

import (
	"reflect"
	"testing"

	"gatewords/internal/cone"
	"gatewords/internal/group"
	"gatewords/internal/guard"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
)

// singletonNet builds a netlist whose adjacency groups are all single nets:
// consecutive gate lines alternate root types. One of them is a lenient net
// q whose first driver is a flip-flop and whose extra driver, the gate line
// that makes q a candidate, is combinational, so q has no cone.
func singletonNet(t *testing.T) (*netlist.Netlist, netlist.NetID) {
	t.Helper()
	nl := netlist.New("singletons")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	a, b, c := pi("a"), pi("b"), pi("c")
	n1 := nl.MustNet("n1")
	nl.MustGate("g1", logic.And, n1, a, b)
	n2 := nl.MustNet("n2")
	nl.MustGate("g2", logic.Or, n2, n1, c)
	d := nl.MustNet("d")
	nl.MustGate("g3", logic.Nand, d, n2, a)
	q := nl.MustNet("q")
	nl.MustGate("ff", logic.DFF, q, d)
	nl.AddGateLenient("gq", logic.Xor, q, a, b)
	n4 := nl.MustNet("n4")
	nl.MustGate("g4", logic.Nor, n4, q, b)
	n5 := nl.MustNet("n5")
	nl.MustGate("g5", logic.Not, n5, n4)
	return nl, q
}

// TestSingletonGroupsMatchKeyedPath pins the key-free path for one-net
// groups against what keying their cones gives: a net is a one-bit
// verified word, a candidate bit and a subgroup exactly when Builder.Bit
// returns a cone for it, sequentially and with workers.
func TestSingletonGroupsMatchKeyedPath(t *testing.T) {
	nl, q := singletonNet(t)
	groups := group.Adjacent(nl, group.Options{})
	b := cone.NewBuilder(nl, cone.NewInterner(), cone.DefaultDepth)
	var want []Word
	sawQ := false
	for _, g := range groups {
		if len(g) != 1 {
			t.Fatalf("group %v is not a single net", g)
		}
		sawQ = sawQ || g[0] == q
		if b.Bit(g[0]) != nil {
			want = append(want, Word{Bits: []netlist.NetID{g[0]}, Verified: true})
		}
	}
	if !sawQ || b.Bit(q) != nil {
		t.Fatalf("lenient net q must be a candidate without a cone (candidate %v)", sawQ)
	}
	for _, workers := range []int{0, 4} {
		rec := obs.New()
		res := Identify(nl, Options{Workers: workers, Observer: rec})
		if !reflect.DeepEqual(res.Words, want) {
			t.Errorf("workers=%d: words %+v, want %+v", workers, res.Words, want)
		}
		st := res.Stats
		if st.Groups != len(groups) || st.CandidateBits != len(want) || st.Subgroups != len(want) {
			t.Errorf("workers=%d: stats %+v, want %d groups and %d candidate bits and subgroups",
				workers, st, len(groups), len(want))
		}
		if got := rec.GaugeValue(obs.GaugeSubgroupBits); got != 1 {
			t.Errorf("workers=%d: max_subgroup_bits = %d, want 1", workers, got)
		}
	}
}

// TestFaultMatchSingletonGroup plants a fault at the match stage of a
// one-net group: the key-free path still enters the stage, so the panic is
// recovered as the group's match-stage failure and every other group's
// word survives.
func TestFaultMatchSingletonGroup(t *testing.T) {
	defer guard.Reset()
	nl, _ := singletonNet(t)
	clean := Identify(nl, Options{})
	const gi = 1 // n2's group
	n2, _ := nl.NetByName("n2")
	var survivors []Word
	for _, w := range clean.Words {
		if w.Bits[0] != n2 {
			survivors = append(survivors, w)
		}
	}
	for _, workers := range []int{0, 4} {
		guard.Reset()
		guard.Plant("match", gi)
		rec := obs.New()
		res := Identify(nl, Options{Workers: workers, Observer: rec})
		if guard.Planted() != 0 {
			t.Fatalf("workers=%d: the plant did not fire", workers)
		}
		want := guard.InjectedPanic{Stage: "match", Group: gi}.String()
		if len(res.Failures) != 1 || res.Failures[0].Group != gi ||
			res.Failures[0].Stage != "match" || res.Failures[0].Message != want {
			t.Fatalf("workers=%d: failures %+v, want one match-stage failure of group %d", workers, res.Failures, gi)
		}
		if got := rec.Count(obs.CtrPanicsRecovered); got != 1 {
			t.Errorf("workers=%d: panics_recovered = %d, want 1", workers, got)
		}
		if !reflect.DeepEqual(res.Words, survivors) {
			t.Errorf("workers=%d: words %+v, want %+v", workers, res.Words, survivors)
		}
	}
}

package reduce

import (
	"context"
	"reflect"
	"testing"

	"gatewords/internal/eqcheck"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// buildVerifyNetlist: x = c & a; y = x | b; z = y ^ a.
func buildVerifyNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("verify")
	c, a, b := nl.MustNet("c"), nl.MustNet("a"), nl.MustNet("b")
	for _, n := range []netlist.NetID{c, a, b} {
		nl.MarkPI(n)
	}
	x, y, z := nl.MustNet("x"), nl.MustNet("y"), nl.MustNet("z")
	nl.MustGate("g1", logic.And, x, c, a)
	nl.MustGate("g2", logic.Or, y, x, b)
	nl.MustGate("g3", logic.Xor, z, y, a)
	nl.MarkPO(z)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestVerifyConesProvesReduction(t *testing.T) {
	nl := buildVerifyNetlist(t)
	c := mustID(t, nl, "c")
	red, err := Apply(nl, map[netlist.NetID]logic.Value{c: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	roots := dirtyRoots(red)
	if len(roots) == 0 {
		t.Fatal("no dirty roots for c=0")
	}
	res := red.VerifyCones(roots, 8, eqcheck.Options{})
	if !res.Sound() || res.Unknown != 0 {
		t.Fatalf("reduction not proved: %+v", res)
	}
	if res.Proved != len(roots) {
		t.Fatalf("proved %d of %d cones", res.Proved, len(roots))
	}
}

// TestVerifyConesBackwardImplication seeds an OUTPUT constant so the inferred
// values flow backward into cone-internal nets; verification must substitute
// them on both sides or it would refute a perfectly sound reduction.
func TestVerifyConesBackwardImplication(t *testing.T) {
	nl := netlist.New("bwd")
	u, v, tt := nl.MustNet("u"), nl.MustNet("v"), nl.MustNet("t")
	for _, n := range []netlist.NetID{u, v, tt} {
		nl.MarkPI(n)
	}
	q, s := nl.MustNet("q"), nl.MustNet("s")
	nl.MustGate("gq", logic.And, q, u, v)
	nl.MustGate("gs", logic.Xor, s, u, tt)
	nl.MarkPO(q)
	nl.MarkPO(s)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	// q=1 backward-implies u=1 and v=1; gs is then rewritten to NOT t.
	red, err := Apply(nl, map[netlist.NetID]logic.Value{q: logic.One})
	if err != nil {
		t.Fatal(err)
	}
	if got := red.Value(u); got != logic.One {
		t.Fatalf("u not backward-implied: %v", got)
	}
	roots := dirtyRoots(red)
	if len(roots) != 1 || roots[0] != s {
		t.Fatalf("dirty roots = %v, want [s]", roots)
	}
	res := red.VerifyCones(roots, 8, eqcheck.Options{})
	if !res.Sound() || res.Proved != 1 {
		t.Fatalf("backward-implied reduction not proved: %+v", res.Checks)
	}
}

// TestVerifyConesRefutesBrokenRewrite corrupts one overlay rewrite and checks
// that verification catches it with a concrete counterexample — the
// acceptance gate for the whole semantic layer.
func TestVerifyConesRefutesBrokenRewrite(t *testing.T) {
	nl := buildVerifyNetlist(t)
	c, b, y := mustID(t, nl, "c"), mustID(t, nl, "b"), mustID(t, nl, "y")
	red, err := Apply(nl, map[netlist.NetID]logic.Value{c: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	// Legitimate rewrite: g2 (y = x|b with x=0) becomes BUF b. Break it by
	// forcing the overlay to claim NOT b instead.
	g2 := nl.Net(y).Driver
	red.eff = map[netlist.GateID]effGate{g2: {kind: logic.Not, ins: []netlist.NetID{b}}}

	res := red.VerifyCones([]netlist.NetID{y}, 8, eqcheck.Options{})
	if res.Refuted != 1 {
		t.Fatalf("broken rewrite not refuted: %+v", res.Checks)
	}
	check := res.Checks[0]
	if check.Cex == nil {
		t.Fatal("refutation carries no counterexample")
	}
	// The counterexample assigns b; under it, b != NOT b trivially, but make
	// sure it names the real frontier variable.
	if _, ok := check.Cex["b"]; !ok {
		t.Fatalf("counterexample %v does not mention b", check.Cex)
	}
	if res.Sound() {
		t.Fatal("Sound() true despite refutation")
	}
}

// TestVerifyConesIndependentOfOrder checks that a root's verification does
// not depend on the roots checked before it in the same sweep. With g2
// wrongly rewritten to AND(b, a) and simulation off, both y's and z's miters
// reach the SAT stage; each root's check from a two-root sweep, in either
// order, must equal its check from a sweep of that root alone, Stats
// included.
func TestVerifyConesIndependentOfOrder(t *testing.T) {
	nl := buildVerifyNetlist(t)
	c, a, b := mustID(t, nl, "c"), mustID(t, nl, "a"), mustID(t, nl, "b")
	y, z := mustID(t, nl, "y"), mustID(t, nl, "z")
	red, err := Apply(nl, map[netlist.NetID]logic.Value{c: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	red.eff = map[netlist.GateID]effGate{nl.Net(y).Driver: {kind: logic.And, ins: []netlist.NetID{b, a}}}
	opt := eqcheck.Options{SimRounds: -1}
	alone := make(map[netlist.NetID]ConeCheck)
	for _, root := range []netlist.NetID{y, z} {
		chk := red.VerifyCones([]netlist.NetID{root}, 8, opt).Checks[0]
		if chk.Stage != "sat" {
			t.Fatalf("root %s decided at stage %q, want sat", chk.Name, chk.Stage)
		}
		alone[root] = chk
	}
	for _, order := range [][]netlist.NetID{{y, z}, {z, y}} {
		for _, got := range red.VerifyCones(order, 8, opt).Checks {
			if want := alone[got.Root]; !reflect.DeepEqual(got, want) {
				t.Errorf("root %s in sweep %v:\n%+v\nalone:\n%+v", got.Name, order, got, want)
			}
		}
	}
}

// TestVerifyConesDepthCut verifies that a depth-limited cut (frontier inside
// the logic) still proves the reduction: both sides are compared over the
// identical frontier variables.
func TestVerifyConesDepthCut(t *testing.T) {
	nl := buildVerifyNetlist(t)
	c, z := mustID(t, nl, "c"), mustID(t, nl, "z")
	red, err := Apply(nl, map[netlist.NetID]logic.Value{c: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	res := red.VerifyCones([]netlist.NetID{z}, 1, eqcheck.Options{})
	if res.Proved != 1 {
		t.Fatalf("depth-1 cone not proved: %+v", res.Checks)
	}
}

func mustID(t *testing.T, nl *netlist.Netlist, name string) netlist.NetID {
	t.Helper()
	id, ok := nl.NetByName(name)
	if !ok {
		t.Fatalf("no net %q", name)
	}
	return id
}

// TestVerifyConesCancelled pins the deadline contract: with the options'
// context already cancelled, every root is still reported — as
// Unknown/"cancelled" — so a bounded sweep yields a complete, deterministic
// check list rather than a silently truncated one.
func TestVerifyConesCancelled(t *testing.T) {
	nl := buildVerifyNetlist(t)
	c := mustID(t, nl, "c")
	red, err := Apply(nl, map[netlist.NetID]logic.Value{c: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	roots := dirtyRoots(red)
	if len(roots) == 0 {
		t.Fatal("no dirty roots for c=0")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := red.VerifyCones(roots, 8, eqcheck.Options{Context: ctx})
	if len(res.Checks) != len(roots) {
		t.Fatalf("got %d checks for %d roots", len(res.Checks), len(roots))
	}
	if res.Unknown != len(roots) || res.Proved != 0 || res.Refuted != 0 {
		t.Fatalf("cancelled sweep counts = %+v, want all Unknown", res)
	}
	for _, chk := range res.Checks {
		if chk.Verdict != eqcheck.Unknown || chk.Stage != "cancelled" {
			t.Errorf("root %s: verdict %v stage %q, want Unknown/cancelled", chk.Name, chk.Verdict, chk.Stage)
		}
	}
	// An un-cancelled context changes nothing.
	live := red.VerifyCones(roots, 8, eqcheck.Options{Context: context.Background()})
	if !live.Sound() || live.Unknown != 0 {
		t.Fatalf("live context sweep not proved: %+v", live)
	}
}

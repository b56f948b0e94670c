package reduce

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// fixpointOracle is a naive reference for propagation, sharing no worklist,
// trail or region code with Propagator: starting from assign, it sweeps
// every combinational gate in gate order through the netlist's own Gate
// records, evaluating forward with logic.TryEval and implying inputs
// backward with logic.ImplyInputs, until a whole sweep changes nothing. It
// returns every net's value, or ok=false when some gate's values
// contradict. A gate it cannot evaluate (a lenient gate whose arity is
// invalid for its kind) stays out of the sweep; malformedReached reports
// whether one of its pins is known at the fixpoint.
func fixpointOracle(nl *netlist.Netlist, assign map[netlist.NetID]logic.Value) (vals []logic.Value, ok, malformedReached bool) {
	vals = make([]logic.Value, nl.NetCount())
	for i := range vals {
		vals[i] = logic.X
	}
	for n, v := range assign {
		vals[n] = v
	}
	var malformed []*netlist.Gate
	for changed := true; changed; {
		changed = false
		malformed = malformed[:0]
		for g := 0; g < nl.GateCount(); g++ {
			gate := nl.Gate(netlist.GateID(g))
			if !gate.Kind.IsCombinational() {
				continue
			}
			in := make([]logic.Value, len(gate.Inputs))
			for i, n := range gate.Inputs {
				in[i] = vals[n]
			}
			out, err := logic.TryEval(gate.Kind, in)
			if err != nil {
				malformed = append(malformed, gate)
				continue
			}
			cur := vals[gate.Output]
			if out.Known() {
				if cur.Known() && cur != out {
					return nil, false, false
				}
				if !cur.Known() {
					vals[gate.Output], cur, changed = out, out, true
				}
			}
			if !cur.Known() {
				continue
			}
			if _, bad := logic.ImplyInputs(gate.Kind, cur, in); bad {
				return nil, false, false
			}
			for i, n := range gate.Inputs {
				if in[i].Known() && !vals[n].Known() {
					vals[n], changed = in[i], true
				}
			}
		}
	}
	for _, gate := range malformed {
		if vals[gate.Output].Known() || slices.ContainsFunc(gate.Inputs, func(n netlist.NetID) bool { return vals[n].Known() }) {
			malformedReached = true
		}
	}
	return vals, true, malformedReached
}

// requireOracleAgrees applies assign through prop and checks it against the
// oracle: the same feasible-or-conflict verdict and, when feasible, the same
// value on every net. It reports whether the apply was feasible.
func requireOracleAgrees(t *testing.T, what string, nl *netlist.Netlist, prop *Propagator, assign map[netlist.NetID]logic.Value) bool {
	t.Helper()
	red, err := prop.Apply(assign, nil)
	want, ok, _ := fixpointOracle(nl, assign)
	if (err == nil) != ok {
		t.Fatalf("%s: assign %v: propagator error %v, oracle feasible %v", what, assign, err, ok)
	}
	if !ok {
		return false
	}
	for i, v := range want {
		if got := red.Value(netlist.NetID(i)); got != v {
			t.Fatalf("%s: assign %v: net %s = %s, oracle %s", what, assign, nl.NetName(netlist.NetID(i)), got, v)
		}
	}
	return true
}

// TestPropagatorMatchesFixpointOracle checks propagation against the naive
// fixpoint on random single and paired assignments over randomComb
// circuits, and on every single and paired assignment over chainWithDFF,
// through one reused propagator per circuit.
func TestPropagatorMatchesFixpointOracle(t *testing.T) {
	var feasible, conflicts int
	count := func(ok bool) {
		if ok {
			feasible++
		} else {
			conflicts++
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := randomComb(rng)
		prop := NewPropagator(nl)
		for step := 0; step < 40; step++ {
			assign := map[netlist.NetID]logic.Value{}
			for len(assign) < 1+rng.Intn(2) {
				assign[netlist.NetID(rng.Intn(nl.NetCount()))] = logic.FromBool(rng.Intn(2) == 1)
			}
			count(requireOracleAgrees(t, fmt.Sprintf("seed %d step %d", seed, step), nl, prop, assign))
		}
	}
	nl, _ := chainWithDFF(t)
	prop := NewPropagator(nl)
	values := []logic.Value{logic.Zero, logic.One}
	for a := 0; a < nl.NetCount(); a++ {
		for _, va := range values {
			na := netlist.NetID(a)
			count(requireOracleAgrees(t, "chain", nl, prop, map[netlist.NetID]logic.Value{na: va}))
			for b := a + 1; b < nl.NetCount(); b++ {
				for _, vb := range values {
					assign := map[netlist.NetID]logic.Value{na: va, netlist.NetID(b): vb}
					count(requireOracleAgrees(t, "chain", nl, prop, assign))
				}
			}
		}
	}
	if feasible == 0 || conflicts == 0 {
		t.Errorf("coverage: %d feasible and %d conflicting assignments", feasible, conflicts)
	}
}

// TestPropagatorSeesGrownNetlist pins propagation over a netlist grown
// after NewPropagator: nets and gates added later, including gates that
// extend the fanout of existing nets and a gate driving a net that already
// existed, must propagate through that propagator exactly as through a
// fresh one-shot Apply, and its scoped applies, whose region reaches the
// added nets, as a whole-netlist apply on that region.
func TestPropagatorSeesGrownNetlist(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := randomComb(rng)
		spare := nl.MustNet("spare")
		prop := NewPropagator(nl)
		n0 := netlist.NetID(0)
		if _, err := prop.Apply(map[netlist.NetID]logic.Value{n0: logic.One}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := prop.ApplyScoped(map[netlist.NetID]logic.Value{n0: logic.One}, []netlist.NetID{spare}, nil); err != nil {
			t.Fatal(err)
		}
		existing := func() netlist.NetID { return netlist.NetID(rng.Intn(int(spare))) }
		steps := []func() netlist.NetID{
			// A gate only: the net already existed.
			func() netlist.NetID {
				nl.MustGate("gspare", logic.Nand, spare, existing(), existing())
				return spare
			},
			// A net only.
			func() netlist.NetID { return nl.MustNet("lone") },
			// A net and gates reading existing nets and each other.
			func() netlist.NetID {
				x := nl.MustNet("x")
				nl.MustGate("gx", logic.Nor, x, existing(), spare)
				y := nl.MustNet("y")
				nl.MustGate("gy", logic.Xor, y, x, existing())
				return y
			},
		}
		for i, grow := range steps {
			added := grow()
			for step := 0; step < 10; step++ {
				assign := map[netlist.NetID]logic.Value{
					added:      logic.FromBool(rng.Intn(2) == 1),
					existing(): logic.FromBool(rng.Intn(2) == 1),
				}
				what := fmt.Sprintf("seed %d growth %d step %d", seed, i, step)
				got, gotErr := prop.Apply(assign, nil)
				want, wantErr := Apply(nl, assign)
				if errText(gotErr) != errText(wantErr) {
					t.Fatalf("%s: err %v, want %v", what, gotErr, wantErr)
				}
				if wantErr == nil {
					requireSameReduction(t, what, nl, got, want)
				}
				requireOracleAgrees(t, what, nl, prop, assign)
				requireScopedMatchesWhole(t, what, nl, prop, []netlist.NetID{added}, assign)
				requireScopedMatchesWhole(t, what, nl, prop, []netlist.NetID{existing()}, assign)
			}
		}
	}
}

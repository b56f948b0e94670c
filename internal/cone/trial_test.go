package cone

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/reduce"
)

// randCircuit builds a layered random combinational circuit: nPI primary
// inputs followed by nGates gates whose inputs are drawn from earlier nets.
// A few DFFs are sprinkled in so boundary handling is exercised too.
func randCircuit(rng *rand.Rand, nPI, nGates int) (*netlist.Netlist, []netlist.NetID) {
	nl := netlist.New("rand")
	var nets []netlist.NetID
	for i := 0; i < nPI; i++ {
		id := nl.MustNet("pi" + string(rune('a'+i)))
		nl.MarkPI(id)
		nets = append(nets, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not}
	var driven []netlist.NetID
	for i := 0; i < nGates; i++ {
		out := nl.MustNet("n" + itoa(i))
		kind := kinds[rng.Intn(len(kinds))]
		if rng.Intn(10) == 0 {
			kind = logic.DFF
		}
		nIn := 2 + rng.Intn(2)
		if kind == logic.Not || kind == logic.DFF {
			nIn = 1
		}
		ins := make([]netlist.NetID, nIn)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		nl.MustGate("g"+itoa(i), kind, out, ins...)
		nets = append(nets, out)
		driven = append(driven, out)
	}
	return nl, driven
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// requireSameBitCone asserts that got, from the reused trial builder, is
// the cone want from a fresh builder, KeyIDs included.
func requireSameBitCone(t *testing.T, what string, got, want *BitCone) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: cone %v, want %v", what, got, want)
	}
	if got == nil {
		return
	}
	if got.Net != want.Net || got.RootGate != want.RootGate || got.RootKind != want.RootKind ||
		got.FullKey != want.FullKey || !slices.Equal(got.Subtrees, want.Subtrees) {
		t.Fatalf("%s: cone %+v, want %+v", what, *got, *want)
	}
}

// TestTrialBuilderMatchesFresh pins the keying of assignment trials: one
// builder per depth views a reused Propagator's Reduction and is reset
// before every apply of a random sequence of single and paired
// assignments, conflicting ones included. After each feasible apply, every
// net's Bit and SubtreeKey must equal those of a fresh builder and
// interner over a detached copy of the reduction, KeyIDs included.
func TestTrialBuilderMatchesFresh(t *testing.T) {
	const maxDepth = 5
	var feasible, conflicts int
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl, _ := randCircuit(rng, 5, 40)
		if err := nl.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prop := reduce.NewPropagator(nl)
		var trial [maxDepth + 1]*Builder
		for step := 0; step < 20; step++ {
			for d := 1; d <= maxDepth; d++ {
				if trial[d] != nil {
					trial[d].Reset()
				}
			}
			assign := map[netlist.NetID]logic.Value{}
			for len(assign) < 1+rng.Intn(2) {
				assign[netlist.NetID(rng.Intn(nl.NetCount()))] = logic.FromBool(rng.Intn(2) == 1)
			}
			red, err := prop.Apply(assign, nil)
			if err != nil {
				conflicts++
				continue
			}
			feasible++
			for d := 1; d <= maxDepth; d++ {
				if trial[d] == nil {
					trial[d] = NewBuilder(red, NewInterner(), d)
				}
				fresh := NewBuilder(red.Detach(), NewInterner(), d)
				for i := 0; i < nl.NetCount(); i++ {
					n := netlist.NetID(i)
					what := fmt.Sprintf("seed %d step %d depth %d net %s", seed, step, d, nl.NetName(n))
					requireSameBitCone(t, what, trial[d].Bit(n), fresh.Bit(n))
					if got, want := trial[d].SubtreeKey(n, d), fresh.SubtreeKey(n, d); got != want {
						t.Fatalf("%s: SubtreeKey %d, want %d", what, got, want)
					}
				}
			}
		}
	}
	if feasible == 0 || conflicts == 0 {
		t.Errorf("coverage: %d feasible and %d conflicting assignments", feasible, conflicts)
	}
}

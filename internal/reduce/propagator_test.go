package reduce

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gatewords/internal/eqcheck"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
)

// randomAssign draws one or two distinct pins with random constant values;
// about one assignment in twelve carries an X.
func randomAssign(rng *rand.Rand, nl *netlist.Netlist) map[netlist.NetID]logic.Value {
	assign := map[netlist.NetID]logic.Value{}
	for len(assign) < 1+rng.Intn(2) {
		assign[netlist.NetID(rng.Intn(nl.NetCount()))] = logic.FromBool(rng.Intn(2) == 1)
	}
	if rng.Intn(12) == 0 {
		for n := range assign {
			assign[n] = logic.X
			break
		}
	}
	return assign
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// requireSameReduction asserts that got and want describe the same reduced
// circuit through every accessor, and that got rewrites every gate as
// TrySimplifyGate does over its values (a malformed gate stays as it is).
func requireSameReduction(t *testing.T, what string, nl *netlist.Netlist, got, want *Reduction) {
	t.Helper()
	for i := 0; i < nl.NetCount(); i++ {
		n := netlist.NetID(i)
		if got.Value(n) != want.Value(n) || got.DriverOf(n) != want.DriverOf(n) {
			t.Fatalf("%s: net %s: value %s driver %d, want %s driver %d", what, nl.NetName(n),
				got.Value(n), got.DriverOf(n), want.Value(n), want.DriverOf(n))
		}
	}
	for i := 0; i < nl.GateCount(); i++ {
		g := netlist.GateID(i)
		if got.GateKind(g) != want.GateKind(g) || !slices.Equal(got.GateInputs(g, nil), want.GateInputs(g, nil)) {
			t.Fatalf("%s: gate %s rewritten to %s%v, want %s%v", what, nl.Gate(g).Name,
				got.GateKind(g), got.GateInputs(g, nil), want.GateKind(g), want.GateInputs(g, nil))
		}
		gate := nl.Gate(g)
		kind, ins, _, err := TrySimplifyGate(gate.Kind, gate.Inputs, got.Value)
		if err != nil {
			kind, ins = gate.Kind, gate.Inputs
		}
		if got.GateKind(g) != kind || !slices.Equal(got.GateInputs(g, nil), ins) {
			t.Fatalf("%s: gate %s rewritten to %s%v, TrySimplifyGate gives %s%v", what, gate.Name,
				got.GateKind(g), got.GateInputs(g, nil), kind, ins)
		}
	}
	if assignedCount(got) != assignedCount(want) || removedGateCount(got) != removedGateCount(want) {
		t.Fatalf("%s: assigned %d removed %d, want %d and %d", what,
			assignedCount(got), removedGateCount(got), assignedCount(want), removedGateCount(want))
	}
	if g, w := dirtyRoots(got), dirtyRoots(want); !slices.Equal(g, w) {
		t.Fatalf("%s: DirtyRoots = %v, want %v", what, g, w)
	}
}

// TestPropagatorMatchesApply is the differential test for propagator reuse.
// One Propagator runs a random sequence of assignments on each randomComb
// circuit, and every step must agree exactly with a fresh propagator's
// first apply: every net's value and the rewritten view, the counts, dirty
// roots, the error, and the propagation's visit count and peak queue. The
// sequence mixes single and paired pins, pins that conflict partway through
// propagation, X values and, on odd seeds, a malformed lenient gate; each
// apply that follows a failed one checks that the reset undid the partial
// assignments. Reductions detached along the way must keep their values
// and still verify after later applies.
func TestPropagatorMatchesApply(t *testing.T) {
	var partialConflicts, afterConflict, xErrors, malformed, proved int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := randomComb(rng)
		if seed%2 == 1 {
			// NAND/1 is legal only in a leniently built netlist.
			in := nl.Gate(netlist.GateID(rng.Intn(nl.GateCount()))).Output
			nl.AddGateLenient("gbad", logic.Nand, nl.MustNet("bad"), in)
		}
		type kept struct{ got, want *Reduction }
		var detached []kept
		prop := NewPropagator(nl)
		prevPartial := false
		for step := 0; step < 60; step++ {
			assign := randomAssign(rng, nl)
			gotRec, wantRec := obs.New(), obs.New()
			got, gotErr := prop.Apply(assign, gotRec)
			touched := len(prop.red.trail)
			want, wantErr := NewPropagator(nl).Apply(assign, wantRec)
			what := fmt.Sprintf("seed %d step %d", seed, step)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("%s: err %v, want %v", what, gotErr, wantErr)
			}
			if *gotRec != *wantRec {
				t.Fatalf("%s: observed %+v, want %+v", what, *gotRec, *wantRec)
			}
			switch {
			case wantErr == nil:
			case errors.Is(wantErr, ErrMalformedGate):
				malformed++
				continue
			case errors.Is(wantErr, ErrConflict):
				if touched > len(assign) {
					partialConflicts++
					prevPartial = true
				}
				continue
			case strings.Contains(wantErr.Error(), "assignment of X"):
				xErrors++
				continue
			default:
				t.Fatalf("%s: unexpected error %v", what, wantErr)
			}
			requireSameReduction(t, what, nl, got, want)
			if prevPartial {
				afterConflict++
				prevPartial = false
			}
			if rng.Intn(4) == 0 {
				detached = append(detached, kept{got: got.Detach(), want: want})
			}
		}
		for _, k := range detached {
			requireSameReduction(t, "detached", nl, k.got, k.want)
			roots := dirtyRoots(k.want)
			gv := k.got.VerifyCones(roots, 3, eqcheck.Options{})
			wv := k.want.VerifyCones(roots, 3, eqcheck.Options{})
			if gv.Refuted != 0 || gv.Proved != wv.Proved || gv.Unknown != wv.Unknown {
				t.Fatalf("seed %d: detached reduction verified %+v, fresh %+v", seed, *gv, *wv)
			}
			proved += gv.Proved
		}
	}
	// The random sequence must actually reach every case it claims to cover.
	if partialConflicts == 0 || afterConflict == 0 || xErrors == 0 || malformed == 0 || proved == 0 {
		t.Errorf("coverage: %d partial conflicts (%d followed by a feasible apply), %d X errors, %d malformed gates, %d detached cones proved",
			partialConflicts, afterConflict, xErrors, malformed, proved)
	}
}

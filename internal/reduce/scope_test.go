package reduce

import (
	"fmt"
	"math/rand"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// regionOf returns, by NetID, the region ApplyScoped documents for roots
// and assign: the combinational transitive fanin of both, stopping at
// flip-flops and primary inputs, or every net of an irregular netlist. It
// is computed here with a recursive walk that shares nothing with
// Propagator.markRegion.
func regionOf(nl *netlist.Netlist, roots []netlist.NetID, assign map[netlist.NetID]logic.Value) []bool {
	in := make([]bool, nl.NetCount())
	if nl.Irregular() {
		for i := range in {
			in[i] = true
		}
		return in
	}
	var visit func(n netlist.NetID)
	visit = func(n netlist.NetID) {
		if in[n] {
			return
		}
		in[n] = true
		if d := nl.Net(n).Driver; d != netlist.NoGate && nl.Gate(d).Kind.IsCombinational() {
			for _, i := range nl.Gate(d).Inputs {
				visit(i)
			}
		}
	}
	for _, n := range roots {
		visit(n)
	}
	for n := range assign {
		visit(n)
	}
	return in
}

// addIrregular adds to nl what only AddGateLenient accepts: a one-input
// NAND reading a random net, a second driver of a random driven net, or
// both.
func addIrregular(rng *rand.Rand, nl *netlist.Netlist) {
	pick := func() netlist.NetID { return netlist.NetID(rng.Intn(nl.NetCount())) }
	what := 1 + rng.Intn(3)
	if what&1 != 0 {
		nl.AddGateLenient(fmt.Sprintf("gbad%d", nl.GateCount()), logic.Nand, nl.MustNet(fmt.Sprintf("bad%d", nl.NetCount())), pick())
	}
	if what&2 != 0 {
		var driven []netlist.NetID
		for i := 0; i < nl.NetCount(); i++ {
			if nl.Net(netlist.NetID(i)).Driver != netlist.NoGate {
				driven = append(driven, netlist.NetID(i))
			}
		}
		if len(driven) > 0 {
			nl.AddGateLenient(fmt.Sprintf("gtwo%d", nl.GateCount()), logic.Xor, driven[rng.Intn(len(driven))], pick(), pick())
		}
	}
}

// requireScopedMatchesWhole applies assign scoped to roots on prop and
// checks it against a whole-netlist apply on a fresh propagator: the same
// error text and, when feasible, the same value on every net of the
// region. It returns the scoped apply's result, with whether the whole
// apply inferred a constant outside the region, where scoping skipped work.
func requireScopedMatchesWhole(t *testing.T, what string, nl *netlist.Netlist, prop *Propagator, roots []netlist.NetID, assign map[netlist.NetID]logic.Value) (red *Reduction, skipped bool, err error) {
	t.Helper()
	got, gotErr := prop.ApplyScoped(assign, roots, nil)
	want, wantErr := NewPropagator(nl).Apply(assign, nil)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: assign %v roots %v: scoped err %v, whole err %v", what, assign, roots, gotErr, wantErr)
	}
	if wantErr != nil {
		return got, false, gotErr
	}
	for i, in := range regionOf(nl, roots, assign) {
		n := netlist.NetID(i)
		switch {
		case in && got.Value(n) != want.Value(n):
			t.Fatalf("%s: assign %v roots %v: net %s = %s scoped, %s whole", what, assign, roots,
				nl.NetName(n), got.Value(n), want.Value(n))
		case !in && want.Value(n).Known():
			skipped = true
		}
	}
	return got, skipped, gotErr
}

// randomPins draws between 1 and max distinct nets of nl.
func randomPins(rng *rand.Rand, nl *netlist.Netlist, max int) []netlist.NetID {
	seen := map[netlist.NetID]bool{}
	var out []netlist.NetID
	for k := 1 + rng.Intn(max); len(out) < k; {
		if n := netlist.NetID(rng.Intn(nl.NetCount())); !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// TestScopedApplyMatchesFixpointOracle checks ApplyScoped against the naive
// fixpoint on randomComb circuits, two in three of them carrying lenient
// malformed gates or second drivers, with up to three assigned pins and up
// to three random roots per apply through one reused propagator. On a
// regular netlist the verdict and every value in the region must equal the
// oracle's. An irregular netlist propagates whole, where only the rule
// applications the propagator reaches run: its values must agree with the
// oracle's wherever it infers one, and it must be feasible whenever the
// oracle is and reaches no malformed gate. Each apply must also equal a
// whole-netlist apply on its region.
func TestScopedApplyMatchesFixpointOracle(t *testing.T) {
	var feasible, conflicts, skipped, irregular int
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := randomComb(rng)
		if seed%3 != 0 {
			addIrregular(rng, nl)
		}
		prop := NewPropagator(nl)
		for step := 0; step < 40; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			assign := map[netlist.NetID]logic.Value{}
			for _, n := range randomPins(rng, nl, 3) {
				assign[n] = logic.FromBool(rng.Intn(2) == 1)
			}
			roots := randomPins(rng, nl, 3)
			red, skip, err := requireScopedMatchesWhole(t, what, nl, prop, roots, assign)
			if skip {
				skipped++
			}
			want, ok, reached := fixpointOracle(nl, assign)
			if !nl.Irregular() {
				if (err == nil) != ok {
					t.Fatalf("%s: assign %v: scoped error %v, oracle feasible %v", what, assign, err, ok)
				}
				if !ok {
					conflicts++
					continue
				}
				feasible++
				for i, in := range regionOf(nl, roots, assign) {
					if n := netlist.NetID(i); in && red.Value(n) != want[i] {
						t.Fatalf("%s: assign %v roots %v: net %s = %s, oracle %s", what, assign, roots, nl.NetName(n), red.Value(n), want[i])
					}
				}
				continue
			}
			irregular++
			if ok && !reached && err != nil {
				t.Fatalf("%s: assign %v: error %v, but the oracle is feasible and reaches no malformed gate", what, assign, err)
			}
			if err != nil || !ok {
				continue
			}
			for i, v := range want {
				if got := red.Value(netlist.NetID(i)); got.Known() && got != v {
					t.Fatalf("%s: assign %v: net %s = %s, oracle %s", what, assign, nl.NetName(netlist.NetID(i)), got, v)
				}
			}
		}
	}
	if feasible == 0 || conflicts == 0 || skipped == 0 || irregular == 0 {
		t.Errorf("coverage: %d feasible and %d conflicting regular applies, %d skipping work outside the region, %d irregular",
			feasible, conflicts, skipped, irregular)
	}
}

// fuzzBytes is a fuzz input read one byte at a time; each read past its end
// yields 0.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzCircuit builds a netlist from data: primary inputs, then gates whose
// pins may name any net, so the circuit can hold combinational cycles and
// flip-flops, then optionally a one-input NAND and a second driver.
func fuzzCircuit(data *fuzzBytes) *netlist.Netlist {
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Not, logic.Buf, logic.Mux2, logic.Aoi21, logic.Oai21, logic.Xor, logic.Xnor, logic.DFF}
	nl := netlist.New("fuzz")
	nPI, nGate := 1+data.next()%4, data.next()%24
	for i := 0; i < nPI; i++ {
		nl.MarkPI(nl.MustNet(fmt.Sprintf("pi%d", i)))
	}
	for i := 0; i < nGate; i++ {
		nl.MustNet(fmt.Sprintf("n%d", i))
	}
	total := nl.NetCount()
	for i := 0; i < nGate; i++ {
		k := kinds[data.next()%len(kinds)]
		arity := 2 + data.next()%2
		if n, fixed := k.FixedArity(); fixed {
			arity = n
		}
		ins := make([]netlist.NetID, arity)
		for j := range ins {
			ins[j] = netlist.NetID(data.next() % total)
		}
		nl.MustGate(fmt.Sprintf("g%d", i), k, netlist.NetID(nPI+i), ins...)
	}
	flags := data.next()
	if flags&1 != 0 {
		nl.AddGateLenient("gbad", logic.Nand, nl.MustNet("bad"), netlist.NetID(data.next()%total))
	}
	if flags&2 != 0 && nGate > 0 {
		nl.AddGateLenient("gtwo", logic.Or, netlist.NetID(nPI+data.next()%nGate),
			netlist.NetID(data.next()%total), netlist.NetID(data.next()%total))
	}
	return nl
}

// FuzzScopedApply builds a circuit from the input bytes, optionally with a
// malformed gate and a second driver, then runs a few applies, each of one
// to three pins (about one in sixteen an X) scoped to one to three roots.
// Each must give a whole-netlist apply's error text and, when feasible,
// its value on every net of the region; and the reused propagator must
// agree with a fresh one on the error and on every net.
func FuzzScopedApply(f *testing.F) {
	f.Add([]byte{2, 6, 0, 0, 1, 2, 1, 3, 0, 2, 1, 4, 5, 6, 2, 0, 1, 1, 7, 1, 3})
	f.Add([]byte{3, 10, 2, 0, 1, 3, 0, 2, 4, 5, 1, 6, 7, 9, 1, 3, 8, 11, 2, 0, 12, 4, 5, 1, 1, 2, 3, 1, 5, 1, 9, 0, 2, 1})
	f.Add([]byte{1, 5, 11, 0, 3, 2, 1, 2, 2, 1, 0, 3, 4, 1, 5, 3, 2, 0, 4, 4, 1})
	f.Add([]byte{4, 20, 0, 0, 1, 2, 1, 0, 4, 3, 2, 1, 5, 6, 3, 2, 7, 8, 4, 3, 9, 10, 5, 4, 11, 12, 6, 5, 13, 14,
		7, 6, 15, 16, 8, 7, 17, 18, 9, 8, 19, 20, 10, 9, 21, 22, 3, 1, 2, 2, 1, 3, 4, 6, 2, 1, 9, 8, 1, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		data := fuzzBytes(raw)
		nl := fuzzCircuit(&data)
		prop := NewPropagator(nl)
		for apply := 0; apply < 1+data.next()%6; apply++ {
			pin := func() netlist.NetID { return netlist.NetID(data.next() % nl.NetCount()) }
			assign := map[netlist.NetID]logic.Value{}
			for k := 1 + data.next()%3; k > 0; k-- {
				v := logic.FromBool(data.next()%2 == 1)
				if data.next()%16 == 0 {
					v = logic.X
				}
				assign[pin()] = v
			}
			var roots []netlist.NetID
			for k := 1 + data.next()%3; k > 0; k-- {
				roots = append(roots, pin())
			}
			what := fmt.Sprintf("apply %d", apply)
			got, _, gotErr := requireScopedMatchesWhole(t, what, nl, prop, roots, assign)
			want, wantErr := NewPropagator(nl).ApplyScoped(assign, roots, nil)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("%s: reused propagator err %v, fresh %v", what, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			for i := 0; i < nl.NetCount(); i++ {
				if n := netlist.NetID(i); got.Value(n) != want.Value(n) {
					t.Fatalf("%s: net %s = %s on the reused propagator, %s on a fresh one", what, nl.NetName(n), got.Value(n), want.Value(n))
				}
			}
		}
	})
}

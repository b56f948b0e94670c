package eqcheck_test

import (
	"bytes"
	"math/bits"
	"reflect"
	"testing"

	"gatewords/internal/aig"
	"gatewords/internal/eqcheck"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
)

// byteSource deals bytes from the fuzz input, repeating 0 when exhausted.
type byteSource struct {
	data []byte
	pos  int
}

func (b *byteSource) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

func (b *byteSource) pick(n int) int {
	if n <= 0 {
		return 0
	}
	return int(b.next()) % n
}

var fuzzKinds = []logic.Kind{
	logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor,
	logic.Not, logic.Buf, logic.Mux2, logic.Aoi21, logic.Oai21,
}

// fuzzNetlist builds a small acyclic netlist from the byte stream: gate
// inputs are drawn only from already-driven nets, DFFs included.
func fuzzNetlist(src *byteSource) *netlist.Netlist {
	nl := netlist.New("fuzz")
	var pool []netlist.NetID
	nPIs := 2 + src.pick(4)
	for i := 0; i < nPIs; i++ {
		id := nl.MustNet("i" + string(rune('0'+i)))
		nl.MarkPI(id)
		pool = append(pool, id)
	}
	nGates := 1 + src.pick(14)
	for i := 0; i < nGates; i++ {
		out := nl.MustNet("n" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		name := "g" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if src.pick(8) == 0 {
			nl.MustGate(name, logic.DFF, out, pool[src.pick(len(pool))])
		} else {
			k := fuzzKinds[src.pick(len(fuzzKinds))]
			arity := 2
			if n, fixed := k.FixedArity(); fixed {
				arity = n
			} else {
				arity = 2 + src.pick(3)
			}
			ins := make([]netlist.NetID, arity)
			for j := range ins {
				ins[j] = pool[src.pick(len(pool))]
			}
			nl.MustGate(name, k, out, ins...)
		}
		pool = append(pool, out)
	}
	// Observe the last few driven nets.
	nPOs := 1 + src.pick(3)
	for i := 0; i < nPOs && i < len(pool); i++ {
		nl.MarkPO(pool[len(pool)-1-i])
	}
	return nl
}

// mutate applies one semantics-preserving-or-not edit to a random gate:
// either swaps two inputs or flips the kind to its dual. Both keep the
// netlist structurally valid and acyclic.
func mutate(nl *netlist.Netlist, src *byteSource) bool {
	if nl.GateCount() == 0 {
		return false
	}
	g := nl.Gate(netlist.GateID(src.pick(nl.GateCount())))
	if g.Kind == logic.DFF {
		return false
	}
	if src.pick(2) == 0 && len(g.Inputs) >= 2 {
		i, j := src.pick(len(g.Inputs)), src.pick(len(g.Inputs))
		if i == j {
			j = (j + 1) % len(g.Inputs)
		}
		g.Inputs[i], g.Inputs[j] = g.Inputs[j], g.Inputs[i]
		return true
	}
	duals := map[logic.Kind]logic.Kind{
		logic.And: logic.Nand, logic.Nand: logic.And,
		logic.Or: logic.Nor, logic.Nor: logic.Or,
		logic.Xor: logic.Xnor, logic.Xnor: logic.Xor,
		logic.Not: logic.Buf, logic.Buf: logic.Not,
	}
	if d, ok := duals[g.Kind]; ok {
		g.Kind = d
		return true
	}
	return false
}

// perOutputChecks is the per-output path CheckNetlists batches: both frames
// lowered into one fresh AIG, and CheckLits on a new solver for each shared
// observable in A's order, building each miter just before its query.
// Comparing it with CheckNetlists, which reuses one solver for every output,
// holds a reused solver to a new one.
func perOutputChecks(t *testing.T, na, nb *netlist.Netlist, opt eqcheck.Options) []eqcheck.OutputCheck {
	t.Helper()
	eff := map[string]logic.Value{"$const0": logic.Zero, "$const1": logic.One}
	g := aig.New()
	fa, err := aig.AddFrame(g, na, eff)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := aig.AddFrame(g, nb, eff)
	if err != nil {
		t.Fatal(err)
	}
	var out []eqcheck.OutputCheck
	for _, name := range fa.OutputNames {
		if lb, ok := fb.Outputs[name]; ok {
			r := eqcheck.NewSolver(g, opt).CheckLits(fa.Outputs[name], lb)
			out = append(out, eqcheck.OutputCheck{Name: name, Result: r})
		}
	}
	return out
}

// maxEnumerated is the most free inputs distinguishable enumerates: 2^14
// assignments per side, one input flip each.
const maxEnumerated = 14

// distinguishable is the ground-truth oracle for a netlist pair. It drives
// one reference simulator per side through every assignment of the pair's
// free inputs in Gray-code order, one input flip per step, and reports each
// shared observable that some assignment makes the sides disagree on. It
// evaluates the netlists directly, sharing no code with the AIG lowering,
// the CNF encoding or the SAT solver. ok is false when the pair has more
// than maxEnumerated free inputs.
func distinguishable(t *testing.T, na, nb *netlist.Netlist) (diff map[string]bool, ok bool) {
	t.Helper()
	sides := [2]*refSim{newRefSim(t, na), newRefSim(t, nb)}
	free := make(map[string]bool)
	for _, r := range sides {
		for name := range r.set {
			free[name] = true
		}
	}
	if len(free) > maxEnumerated {
		return nil, false
	}
	var names, shared []string
	for name := range free {
		names = append(names, name)
	}
	for name := range sides[0].obs {
		if _, ok := sides[1].obs[name]; ok {
			shared = append(shared, name)
		}
	}
	vals := make([]bool, len(names))
	apply := func(i int) {
		for _, r := range sides {
			if set, ok := r.set[names[i]]; ok {
				set(logic.FromBool(vals[i]))
			}
		}
	}
	for i := range names {
		apply(i)
	}
	diff = make(map[string]bool)
	for step := 1; ; step++ {
		sides[0].s.Settle()
		sides[1].s.Settle()
		for _, name := range shared {
			if sides[0].s.Value(sides[0].obs[name]) != sides[1].s.Value(sides[1].obs[name]) {
				diff[name] = true
			}
		}
		if step == 1<<len(names) {
			return diff, true
		}
		i := bits.TrailingZeros(uint(step))
		vals[i] = !vals[i]
		apply(i)
	}
}

// FuzzEqcheck feeds random netlist pairs (a generated netlist against a
// possibly-mutated clone) through CheckNetlists and checks the checker's own
// contract: no panics, verdicts stable across a repeated run, output for
// output the same results and obs counters as the per-output path, an
// unmutated clone always proved equivalent, every refutation's
// counterexample replayable on the reference simulator, and, for pairs of at
// most maxEnumerated free inputs, every decided verdict matching exhaustive
// simulation.
func FuzzEqcheck(f *testing.F) {
	f.Add([]byte{3, 7, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		na := fuzzNetlist(src)
		nb := na.Clone()
		mutated := src.pick(2) == 1 && mutate(nb, src)
		opt := eqcheck.Options{SimRounds: 4, MaxConflicts: 2000}
		batchObs, refObs := obs.New(), obs.New()
		optObs := opt
		optObs.Observer = batchObs
		res1, err := eqcheck.CheckNetlists(na, nb, nil, optObs)
		if err != nil {
			t.Fatalf("CheckNetlists: %v", err)
		}
		optObs.Observer = refObs
		if ref := perOutputChecks(t, na, nb, optObs); !reflect.DeepEqual(res1.Outputs, ref) {
			t.Fatalf("CheckNetlists differs from the per-output path:\nbatch:      %+v\nper-output: %+v", res1.Outputs, ref)
		}
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			if b, r := batchObs.Count(c), refObs.Count(c); b != r {
				t.Fatalf("counter %s: CheckNetlists %d, per-output path %d", c, b, r)
			}
		}
		res2, err := eqcheck.CheckNetlists(na, nb, nil, opt)
		if err != nil {
			t.Fatalf("CheckNetlists rerun: %v", err)
		}
		if len(res1.Outputs) != len(res2.Outputs) {
			t.Fatalf("output count changed across runs: %d vs %d", len(res1.Outputs), len(res2.Outputs))
		}
		for i := range res1.Outputs {
			if res1.Outputs[i].Result.Verdict != res2.Outputs[i].Result.Verdict {
				t.Fatalf("verdict for %q unstable: %v vs %v", res1.Outputs[i].Name,
					res1.Outputs[i].Result.Verdict, res2.Outputs[i].Result.Verdict)
			}
		}
		if !mutated && res1.Verdict() != eqcheck.Equivalent {
			t.Fatalf("identical clone not proved equivalent: %+v", res1.Outputs)
		}
		// Ground truth: an equivalence proof must leave no distinguishing
		// assignment, and a refutation must have one. Unknown is exempt.
		if diff, ok := distinguishable(t, na, nb); ok {
			for _, oc := range res1.Outputs {
				switch {
				case oc.Result.Verdict == eqcheck.Equivalent && diff[oc.Name]:
					t.Fatalf("%q proved equivalent, but an assignment distinguishes the sides", oc.Name)
				case oc.Result.Verdict == eqcheck.NotEquivalent && !diff[oc.Name]:
					t.Fatalf("%q refuted, but no assignment distinguishes the sides", oc.Name)
				}
			}
		}
		for _, oc := range res1.Outputs {
			if oc.Result.Verdict != eqcheck.NotEquivalent {
				continue
			}
			if oc.Cex == nil {
				t.Fatalf("refutation of %q without counterexample", oc.Name)
			}
			va := simulate(t, na, oc.Cex)
			vb := simulate(t, nb, oc.Cex)
			if va[oc.Name] == vb[oc.Name] {
				t.Fatalf("cex for %q does not replay: both sides %v under %v",
					oc.Name, va[oc.Name], oc.Cex)
			}
		}
	})
}

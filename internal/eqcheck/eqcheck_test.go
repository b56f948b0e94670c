package eqcheck_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"gatewords/internal/aig"
	"gatewords/internal/bench"
	"gatewords/internal/eqcheck"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
	"gatewords/internal/sim"
)

func TestCheckLitsStrashIdentity(t *testing.T) {
	g := aig.New()
	a, b := g.Input("a"), g.Input("b")
	x := g.And(a, g.Or(b, a.Not()))
	y := g.And(g.Or(b, a.Not()), a)
	r := eqcheck.CheckLits(g, x, y, eqcheck.Options{})
	if r.Verdict != eqcheck.Equivalent || r.Stage != "strash" {
		t.Fatalf("verdict=%v stage=%s, want equivalent/strash", r.Verdict, r.Stage)
	}
}

// TestCheckLitsSATProof uses two structurally different majority
// implementations: simulation cannot prove equivalence, so the verdict must
// come from an UNSAT miter.
func TestCheckLitsSATProof(t *testing.T) {
	g := aig.New()
	a, b, c := g.Input("a"), g.Input("b"), g.Input("c")
	maj1 := g.Or(g.Or(g.And(a, b), g.And(a, c)), g.And(b, c))
	maj2 := g.Or(g.And(a, g.Or(b, c)), g.And(b, c))
	r := eqcheck.CheckLits(g, maj1, maj2, eqcheck.Options{})
	if r.Verdict != eqcheck.Equivalent {
		t.Fatalf("majority forms not proved equivalent: %+v", r)
	}
	if r.Stage != "sat" && r.Stage != "strash" {
		t.Fatalf("unexpected deciding stage %q", r.Stage)
	}
}

func TestCheckLitsRefutedBySim(t *testing.T) {
	g := aig.New()
	a, b := g.Input("a"), g.Input("b")
	r := eqcheck.CheckLits(g, g.And(a, b), g.Or(a, b), eqcheck.Options{})
	if r.Verdict != eqcheck.NotEquivalent || r.Stage != "sim" {
		t.Fatalf("verdict=%v stage=%s, want not-equivalent/sim", r.Verdict, r.Stage)
	}
	checkCexDistinguishes(t, g, g.And(a, b), g.Or(a, b), r.Cex)
}

func TestCheckLitsRefutedBySAT(t *testing.T) {
	g := aig.New()
	a, b := g.Input("a"), g.Input("b")
	x, y := g.And(a, b), g.Or(a, b)
	r := eqcheck.CheckLits(g, x, y, eqcheck.Options{SimRounds: -1})
	if r.Verdict != eqcheck.NotEquivalent || r.Stage != "sat" {
		t.Fatalf("verdict=%v stage=%s, want not-equivalent/sat", r.Verdict, r.Stage)
	}
	checkCexDistinguishes(t, g, x, y, r.Cex)
}

// checkCexDistinguishes asserts the counterexample makes x and y differ.
func checkCexDistinguishes(t *testing.T, g *aig.AIG, x, y aig.Lit, cex map[string]bool) {
	t.Helper()
	if cex == nil {
		t.Fatal("NotEquivalent without counterexample")
	}
	assign := make([]bool, g.NumInputs())
	for name, v := range cex {
		l, ok := g.InputByName(name)
		if !ok {
			t.Fatalf("cex names unknown input %q", name)
		}
		assign[inputIndexOf(t, g, l)] = v
	}
	if g.EvalBool(assign, x) == g.EvalBool(assign, y) {
		t.Fatalf("counterexample %v does not distinguish the sides", cex)
	}
}

func inputIndexOf(t *testing.T, g *aig.AIG, l aig.Lit) int {
	t.Helper()
	for i := 0; i < g.NumInputs(); i++ {
		if g.InputLit(i) == l {
			return i
		}
	}
	t.Fatalf("no input index for %v", l)
	return -1
}

// TestCheckLitsUnknownOnBudget miters two association orders of a wide XOR:
// equivalent (so simulation never refutes) but hard for the SAT search, so
// a tiny conflict budget must yield Unknown.
func TestCheckLitsUnknownOnBudget(t *testing.T) {
	g := aig.New()
	const n = 10
	ins := make([]aig.Lit, n)
	for i := range ins {
		ins[i] = g.Input(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	left := g.XorN(ins)
	right := aig.False
	for i := n - 1; i >= 0; i-- {
		right = g.Xor(ins[i], right)
	}
	r := eqcheck.CheckLits(g, left, right, eqcheck.Options{SimRounds: 2, MaxConflicts: 5})
	if r.Verdict != eqcheck.Unknown || r.Stage != "sat" {
		t.Fatalf("verdict=%v stage=%s, want unknown/sat", r.Verdict, r.Stage)
	}
	// With the default budget the same miter is proved.
	r = eqcheck.CheckLits(g, left, right, eqcheck.Options{SimRounds: 2})
	if r.Verdict != eqcheck.Equivalent {
		t.Fatalf("default budget failed to prove XOR reassociation: %+v", r)
	}
}

func TestSolve(t *testing.T) {
	g := aig.New()
	a, b := g.Input("a"), g.Input("b")
	if r := eqcheck.Solve(g, aig.False, eqcheck.Options{}); r.Status != eqcheck.Unsat {
		t.Fatalf("False: %+v", r)
	}
	if r := eqcheck.Solve(g, aig.True, eqcheck.Options{}); r.Status != eqcheck.Sat {
		t.Fatalf("True: %+v", r)
	}
	// a & !a is unsatisfiable only via folding; a & b is satisfiable.
	if r := eqcheck.Solve(g, g.And(a, a.Not()), eqcheck.Options{}); r.Status != eqcheck.Unsat {
		t.Fatalf("a&!a: %+v", r)
	}
	r := eqcheck.Solve(g, g.And(a, b.Not()), eqcheck.Options{})
	if r.Status != eqcheck.Sat {
		t.Fatalf("a&!b: %+v", r)
	}
	if !r.Model["a"] || r.Model["b"] {
		t.Fatalf("model %v does not satisfy a&!b", r.Model)
	}
	// Same query with simulation disabled must agree via SAT.
	r = eqcheck.Solve(g, g.And(a, b.Not()), eqcheck.Options{SimRounds: -1})
	if r.Status != eqcheck.Sat || r.Stage != "sat" {
		t.Fatalf("a&!b via sat: %+v", r)
	}
	if !r.Model["a"] || r.Model["b"] {
		t.Fatalf("sat model %v does not satisfy a&!b", r.Model)
	}
}

// buildAdder2 returns a 2-bit adder netlist (sum outputs s0, s1) built from
// the given gate vocabulary variant, so two variants are structurally
// different but functionally equal.
func buildAdder2(t *testing.T, name string, viaMux bool) *netlist.Netlist {
	t.Helper()
	nl := netlist.New(name)
	a0, a1 := nl.MustNet("a0"), nl.MustNet("a1")
	b0, b1 := nl.MustNet("b0"), nl.MustNet("b1")
	for _, n := range []netlist.NetID{a0, a1, b0, b1} {
		nl.MarkPI(n)
	}
	s0, s1 := nl.MustNet("s0"), nl.MustNet("s1")
	c0 := nl.MustNet("c0")
	nl.MustGate("gc0", logic.And, c0, a0, b0)
	if viaMux {
		// s = sel ? !b : b with sel=a is XOR via a mux.
		nb0, nb1 := nl.MustNet("nb0"), nl.MustNet("nb1")
		x1 := nl.MustNet("x1")
		nl.MustGate("gn0", logic.Not, nb0, b0)
		nl.MustGate("gn1", logic.Not, nb1, b1)
		nl.MustGate("gs0", logic.Mux2, s0, a0, b0, nb0)
		nl.MustGate("gx1", logic.Mux2, x1, a1, b1, nb1)
		nx1 := nl.MustNet("nx1")
		nl.MustGate("gnx1", logic.Not, nx1, x1)
		nl.MustGate("gs1", logic.Mux2, s1, c0, x1, nx1)
	} else {
		x1 := nl.MustNet("x1")
		nl.MustGate("gs0", logic.Xor, s0, a0, b0)
		nl.MustGate("gx1", logic.Xor, x1, a1, b1)
		nl.MustGate("gs1", logic.Xor, s1, x1, c0)
	}
	nl.MarkPO(s0)
	nl.MarkPO(s1)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestCheckNetlistsEquivalent(t *testing.T) {
	na := buildAdder2(t, "adder_xor", false)
	nb := buildAdder2(t, "adder_mux", true)
	res, err := eqcheck.CheckNetlists(na, nb, nil, eqcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Verdict(); v != eqcheck.Equivalent {
		t.Fatalf("adder variants: verdict %v: %+v", v, res.Outputs)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("matched %d outputs, want 2", len(res.Outputs))
	}
}

func TestCheckNetlistsRefuted(t *testing.T) {
	na := buildAdder2(t, "adder_xor", false)
	nb := buildAdder2(t, "adder_mux", true)
	// Break nb: swap s1's data pins, flipping the carry mux.
	gi, ok := func() (netlist.GateID, bool) {
		for i := 0; i < nb.GateCount(); i++ {
			if nb.Gate(netlist.GateID(i)).Name == "gs1" {
				return netlist.GateID(i), true
			}
		}
		return 0, false
	}()
	if !ok {
		t.Fatal("no gs1 gate")
	}
	g := nb.Gate(gi)
	g.Inputs[1], g.Inputs[2] = g.Inputs[2], g.Inputs[1]
	res, err := eqcheck.CheckNetlists(na, nb, nil, eqcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bad *eqcheck.OutputCheck
	for i := range res.Outputs {
		if res.Outputs[i].Name == "s1" {
			bad = &res.Outputs[i]
		}
	}
	if bad == nil || bad.Result.Verdict != eqcheck.NotEquivalent {
		t.Fatalf("broken s1 not refuted: %+v", res.Outputs)
	}
	if bad.Cex == nil {
		t.Fatal("refutation without counterexample")
	}
	// Replay the counterexample on both three-valued simulators: the flagged
	// output must differ.
	va := simulate(t, na, bad.Cex)
	vb := simulate(t, nb, bad.Cex)
	if va["s1"] == vb["s1"] {
		t.Fatalf("cex %v does not distinguish s1 (a=%v b=%v)", bad.Cex, va["s1"], vb["s1"])
	}
}

func TestCheckNetlistsPinned(t *testing.T) {
	na := buildAdder2(t, "adder_xor", false)
	nb := buildAdder2(t, "adder_mux", true)
	// Under a1=0, b1=0 the netlists stay equivalent; pinning is applied to
	// both sides.
	pin := map[string]logic.Value{"a1": logic.Zero, "b1": logic.Zero}
	res, err := eqcheck.CheckNetlists(na, nb, pin, eqcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Verdict(); v != eqcheck.Equivalent {
		t.Fatalf("pinned adders: %v", v)
	}
}

// TestCheckNetlistsConstTieoff checks the reduce.Materialize convention:
// "$const0"/"$const1" tie-off inputs are pinned automatically.
func TestCheckNetlistsConstTieoff(t *testing.T) {
	na := netlist.New("tied")
	a := na.MustNet("a")
	one := na.MustNet("$const1")
	na.MarkPI(a)
	na.MarkPI(one)
	y := na.MustNet("y")
	na.MustGate("g", logic.And, y, a, one)
	na.MarkPO(y)

	nb := netlist.New("plain")
	ab := nb.MustNet("a")
	nb.MarkPI(ab)
	yb := nb.MustNet("y")
	nb.MustGate("g", logic.Buf, yb, ab)
	nb.MarkPO(yb)

	res, err := eqcheck.CheckNetlists(na, nb, nil, eqcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Verdict(); v != eqcheck.Equivalent {
		t.Fatalf("tie-off not honored: %v: %+v", v, res.Outputs)
	}
}

func TestCheckNetlistsNoSharedObservables(t *testing.T) {
	na := buildAdder2(t, "a", false)
	nb := netlist.New("other")
	x := nb.MustNet("x")
	nb.MarkPI(x)
	z := nb.MustNet("z")
	nb.MustGate("g", logic.Buf, z, x)
	nb.MarkPO(z)
	if _, err := eqcheck.CheckNetlists(na, nb, nil, eqcheck.Options{}); err == nil {
		t.Fatal("expected error for disjoint observables")
	}
}

// refSim drives one netlist on the reference simulator by the names
// CheckNetlists uses: free inputs are primary inputs and flip-flop states by
// net name, and observables are primary outputs by net name and next-state
// functions by aig.FFPrefix + gate name, read at the flip-flop's D input.
type refSim struct {
	s   *sim.Simulator
	set map[string]func(logic.Value) // free input name -> setter
	obs map[string]netlist.NetID     // observable name -> net read
}

func newRefSim(t *testing.T, nl *netlist.Netlist) *refSim {
	t.Helper()
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	r := &refSim{s: s, set: make(map[string]func(logic.Value)), obs: make(map[string]netlist.NetID)}
	for _, pi := range nl.PIs() {
		r.set[nl.NetName(pi)] = func(v logic.Value) { _ = s.SetInput(pi, v) } // pi is a PI: no error
	}
	for i, gid := range nl.DFFs() {
		g := nl.Gate(gid)
		r.set[nl.NetName(g.Output)] = func(v logic.Value) { s.SetState(i, v) }
		r.obs[aig.FFPrefix+g.Name] = g.Inputs[0]
	}
	for _, po := range nl.POs() {
		r.obs[nl.NetName(po)] = po
	}
	return r
}

// simulate drives nl's free inputs from assign, settles, and returns the
// value of every observable by name. Unlisted inputs default to 0 — the same
// completion eqcheck uses for inputs outside a counterexample's support.
func simulate(t *testing.T, nl *netlist.Netlist, assign map[string]bool) map[string]logic.Value {
	t.Helper()
	r := newRefSim(t, nl)
	for name, set := range r.set {
		set(logic.FromBool(assign[name]))
	}
	r.s.Settle()
	out := make(map[string]logic.Value, len(r.obs))
	for name, n := range r.obs {
		out[name] = r.s.Value(n)
	}
	return out
}

// TestSim64AgainstReferenceSimulator cross-checks eqcheck's 64-bit-parallel
// AIG simulation against the three-valued reference simulator on a bench
// generator circuit: under fully known inputs and states, every primary
// output and every next-state bit must agree exactly.
func TestSim64AgainstReferenceSimulator(t *testing.T) {
	prof, ok := bench.ProfileByName("b03")
	if !ok {
		t.Fatal("no b03 profile")
	}
	gen, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	nl := gen.NL

	g := aig.New()
	f, err := aig.AddFrame(g, nl, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	words := make([]uint64, g.NumInputs())
	for i := range words {
		words[i] = rng.Uint64()
	}
	vals := g.Sim64(words, nil)

	wordOf := func(name string) (uint64, bool) {
		l, ok := g.InputByName(name)
		if !ok {
			return 0, false
		}
		return words[inputIndexOf(t, g, l)], true
	}

	for _, lane := range []uint{0, 1, 31, 63} {
		s, err := sim.New(nl)
		if err != nil {
			t.Fatal(err)
		}
		for _, pi := range nl.PIs() {
			w, ok := wordOf(nl.NetName(pi))
			if !ok {
				t.Fatalf("PI %q missing from frame inputs", nl.NetName(pi))
			}
			if err := s.SetInput(pi, logic.FromBool(w>>lane&1 == 1)); err != nil {
				t.Fatal(err)
			}
		}
		for i, gid := range nl.DFFs() {
			w, ok := wordOf(nl.NetName(nl.Gate(gid).Output))
			if !ok {
				t.Fatalf("state %q missing from frame inputs", nl.NetName(nl.Gate(gid).Output))
			}
			s.SetState(i, logic.FromBool(w>>lane&1 == 1))
		}
		s.Settle()
		checked := 0
		for _, name := range f.OutputNames {
			var ref logic.Value
			if id, ok := nl.NetByName(name); ok && nl.Net(id).IsPO {
				ref = s.Value(id)
			} else {
				continue
			}
			if !ref.Known() {
				t.Fatalf("reference simulator returned X for %q under known inputs", name)
			}
			got := aig.Word(vals, f.Outputs[name])>>lane&1 == 1
			if got != (ref == logic.One) {
				t.Fatalf("lane %d output %q: aig=%v sim=%v", lane, name, got, ref)
			}
			checked++
		}
		for _, gid := range nl.DFFs() {
			gate := nl.Gate(gid)
			ref := s.Value(gate.Inputs[0])
			if !ref.Known() {
				t.Fatalf("reference simulator returned X for next state of %q", gate.Name)
			}
			got := aig.Word(vals, f.Outputs[aig.FFPrefix+gate.Name])>>lane&1 == 1
			if got != (ref == logic.One) {
				t.Fatalf("lane %d next-state %q: aig=%v sim=%v", lane, gate.Name, got, ref)
			}
			checked++
		}
		if checked == 0 {
			t.Fatal("cross-check compared nothing")
		}
	}
}

// wideXorMiter rebuilds the reassociated-XOR miter of
// TestCheckLitsUnknownOnBudget: equivalent sides (simulation can never
// refute) that a tiny conflict budget cannot prove.
func wideXorMiter() (*aig.AIG, aig.Lit, aig.Lit) {
	g := aig.New()
	const n = 10
	ins := make([]aig.Lit, n)
	for i := range ins {
		ins[i] = g.Input(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	left := g.XorN(ins)
	right := aig.False
	for i := n - 1; i >= 0; i-- {
		right = g.Xor(ins[i], right)
	}
	return g, left, right
}

// TestRetryLadderEscalatesUnknown pins the escalating-retry ladder: a
// conflict budget too small to prove the wide-XOR miter stays Unknown with
// the ladder off, and is escalated to a decided Equivalent with it on — with
// the retries counted in both the result stats and the observer.
func TestRetryLadderEscalatesUnknown(t *testing.T) {
	g, left, right := wideXorMiter()
	base := eqcheck.Options{SimRounds: 2, MaxConflicts: 5}

	r := eqcheck.CheckLits(g, left, right, base)
	if r.Verdict != eqcheck.Unknown || r.Stats.Retries != 0 {
		t.Fatalf("ladder off: verdict=%v retries=%d, want unknown/0", r.Verdict, r.Stats.Retries)
	}

	rec := obs.New()
	opt := base
	opt.RetryUnknown = 20
	opt.Observer = rec
	r = eqcheck.CheckLits(g, left, right, opt)
	if r.Verdict != eqcheck.Equivalent || r.Stage != "sat" {
		t.Fatalf("ladder on: verdict=%v stage=%s, want equivalent/sat", r.Verdict, r.Stage)
	}
	if r.Stats.Retries < 1 {
		t.Fatalf("ladder on: Retries = %d, want >= 1", r.Stats.Retries)
	}
	if got := rec.Count(obs.CtrSATRetries); got != int64(r.Stats.Retries) {
		t.Errorf("sat_retries counter = %d, want %d", got, r.Stats.Retries)
	}

	// A cap at the starting budget forbids any escalation: the ladder stops
	// immediately and the verdict stays Unknown with zero retries.
	opt = base
	opt.RetryUnknown = 20
	opt.RetryConflictCap = base.MaxConflicts
	r = eqcheck.CheckLits(g, left, right, opt)
	if r.Verdict != eqcheck.Unknown || r.Stats.Retries != 0 {
		t.Fatalf("capped ladder: verdict=%v retries=%d, want unknown/0", r.Verdict, r.Stats.Retries)
	}
}

// TestCheckNetlistsCancelled pins the deadline contract at the multi-output
// driver: a cancelled context resolves every remaining output to
// Unknown/"cancelled" while keeping the output list complete and ordered.
func TestCheckNetlistsCancelled(t *testing.T) {
	na := buildAdder2(t, "adder_xor", false)
	nb := buildAdder2(t, "adder_mux", true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eqcheck.CheckNetlists(na, nb, nil, eqcheck.Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("got %d outputs, want the full list", len(res.Outputs))
	}
	for _, out := range res.Outputs {
		if out.Verdict != eqcheck.Unknown || out.Stage != "cancelled" {
			t.Errorf("output %s: verdict %v stage %q, want Unknown/cancelled", out.Name, out.Verdict, out.Stage)
		}
	}
}

// countdownCtx is a context whose Err reports cancellation from call
// remaining+1 on. Options.Context is polled only through Err, so sweeping
// remaining cancels a run at each of its polls in turn, which a timer
// cannot do deterministically.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining--; c.remaining < 0 {
		return context.Canceled
	}
	return nil
}

// TestCheckNetlistsCancelledMidRun sweeps the cancellation point across a
// whole CheckNetlists run, per-output polls and retry-ladder polls alike,
// on a pair whose outputs are decided by strash, simulation and SAT.
// Wherever the context dies, the output list stays complete and in order,
// the decided outputs equal the uncancelled run's prefix exactly, and the
// rest are Unknown/"cancelled".
func TestCheckNetlistsCancelledMidRun(t *testing.T) {
	pair := goldenPairs(t, "b08a")[1]
	if pair.name != "b08a/nand2-to-and2" {
		t.Fatalf("pair %s, want the NAND2-swapped one", pair.name)
	}
	for _, opt := range []eqcheck.Options{{}, {MaxConflicts: 3, RetryUnknown: 2}} {
		clean, err := eqcheck.CheckNetlists(pair.na, pair.nb, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		stages := make(map[string]bool)
		for _, oc := range clean.Outputs {
			stages[oc.Stage] = true
		}
		if !stages["strash"] || !stages["sim"] || !stages["sat"] {
			t.Fatalf("%+v: stages %v, want strash, sim and sat", opt, stages)
		}
		counter := &countdownCtx{Context: context.Background(), remaining: 1 << 30}
		opt.Context = counter
		if _, err := eqcheck.CheckNetlists(pair.na, pair.nb, nil, opt); err != nil {
			t.Fatal(err)
		}
		polls := 1<<30 - counter.remaining
		partial := false
		for n := 0; n <= polls+1; n++ {
			opt.Context = &countdownCtx{Context: context.Background(), remaining: n}
			res, err := eqcheck.CheckNetlists(pair.na, pair.nb, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outputs) != len(clean.Outputs) {
				t.Fatalf("n=%d: %d outputs, want %d", n, len(res.Outputs), len(clean.Outputs))
			}
			cut := len(res.Outputs)
			for i, oc := range res.Outputs {
				if oc.Stage == "cancelled" {
					cut = i
					break
				}
			}
			if !reflect.DeepEqual(res.Outputs[:cut], clean.Outputs[:cut]) {
				t.Fatalf("n=%d: the %d decided outputs differ from the uncancelled run's prefix", n, cut)
			}
			for i, oc := range res.Outputs[cut:] {
				if oc.Name != clean.Outputs[cut+i].Name || oc.Verdict != eqcheck.Unknown || oc.Stage != "cancelled" {
					t.Fatalf("n=%d: output %d is %s %v/%s, want %s Unknown/cancelled",
						n, cut+i, oc.Name, oc.Verdict, oc.Stage, clean.Outputs[cut+i].Name)
				}
			}
			if n >= polls && cut != len(clean.Outputs) {
				t.Fatalf("n=%d: a countdown that outlives the run's %d polls cancelled it", n, polls)
			}
			partial = partial || (cut > 0 && cut < len(clean.Outputs))
		}
		if !partial {
			t.Errorf("%+v: the sweep over %d polls never gave a proper partial result", opt, polls)
		}
	}
}

// TestOptionsCancelled covers the poll helper itself.
func TestOptionsCancelled(t *testing.T) {
	if (eqcheck.Options{}).Cancelled() {
		t.Error("zero Options reports cancelled")
	}
	if (eqcheck.Options{Context: context.Background()}).Cancelled() {
		t.Error("live context reports cancelled")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if !(eqcheck.Options{Context: ctx}).Cancelled() {
		t.Error("cancelled context not reported")
	}
	if r := eqcheck.CancelledResult(); r.Verdict != eqcheck.Unknown || r.Stage != "cancelled" {
		t.Errorf("CancelledResult = %+v", r)
	}
}

package core

import (
	"reflect"
	"strings"
	"testing"

	"gatewords/internal/cone"
	"gatewords/internal/ctrlsig"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/reduce"
)

// wordNet builds one Figure-1-style word at gate level (internals first,
// roots adjacent): bit_i = NAND3(X_i, Y_i, Z_i) with X/Y similar and Z
// divergent, killable by k=0 (k = NAND(p,q) decode).
func wordNet(t *testing.T, nBits int, secondSignal bool) (*netlist.Netlist, []netlist.NetID, netlist.NetID, netlist.NetID) {
	t.Helper()
	nl := netlist.New("w")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	p, q := pi("p"), pi("q")
	s1, s2 := pi("s1"), pi("s2")
	k := nl.MustNet("k")
	nl.MustGate("gk", logic.Nand, k, p, q)
	k2 := netlist.NoNet
	if secondSignal {
		r, w := pi("r"), pi("w")
		k2 = nl.MustNet("k2")
		nl.MustGate("gk2", logic.Nand, k2, r, w)
	}
	type spec struct{ x, y, z netlist.NetID }
	var specs []spec
	for i := 0; i < nBits; i++ {
		sfx := string(rune('0' + i))
		a, b, c := pi("a"+sfx), pi("b"+sfx), pi("c"+sfx)
		x := nl.MustNet("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, a, s1)
		y := nl.MustNet("y" + sfx)
		nl.MustGate("gy"+sfx, logic.Nand, y, b, s2)
		z := nl.MustNet("z" + sfx)
		switch {
		case secondSignal && i >= nBits/2:
			// High half killable only by k2, but contains both signals.
			inner := nl.MustNet("zi" + sfx)
			nl.MustGate("gzi"+sfx, logic.Nand, inner, c, k)
			nl.MustGate("gz"+sfx, logic.Oai21, z, inner, inner, k2)
		case secondSignal:
			inner := nl.MustNet("zi" + sfx)
			nl.MustGate("gzi"+sfx, logic.Nand, inner, c, k2)
			nl.MustGate("gz"+sfx, logic.Nand, z, inner, k)
		case i == 0:
			nl.MustGate("gz"+sfx, logic.Nand, z, c, k)
		case i == 1:
			m := pi("m" + sfx)
			nl.MustGate("gz"+sfx, logic.Nand, z, c, m, k)
		default:
			inner := nl.MustNet("zi" + sfx)
			nl.MustGate("gzi"+sfx, logic.Nand, inner, c, pi("m"+sfx))
			nl.MustGate("gz"+sfx, logic.Nand, z, inner, k)
		}
		specs = append(specs, spec{x, y, z})
	}
	var bits []netlist.NetID
	for i, s := range specs {
		bit := nl.MustNet("bit" + string(rune('0'+i)))
		nl.MustGate("gb"+string(rune('0'+i)), logic.Nand, bit, s.x, s.y, s.z)
		bits = append(bits, bit)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl, bits, k, k2
}

func findWord(res *Result, bits []netlist.NetID) *Word {
	for i := range res.Words {
		set := map[netlist.NetID]bool{}
		for _, n := range res.Words[i].Bits {
			set[n] = true
		}
		all := true
		for _, b := range bits {
			if !set[b] {
				all = false
				break
			}
		}
		if all {
			return &res.Words[i]
		}
	}
	return nil
}

func TestIdentifySingleControlSignal(t *testing.T) {
	nl, bits, k, _ := wordNet(t, 4, false)
	res := Identify(nl, Options{CollectTrace: true})
	w := findWord(res, bits)
	if w == nil {
		t.Fatalf("word not found; trace: %v", res.Trace)
	}
	if !w.Verified {
		t.Errorf("word not verified; trace: %v", res.Trace)
	}
	if len(w.Controls) != 1 || w.Controls[0] != k {
		t.Errorf("controls = %v, want [k]; trace: %v", w.Controls, res.Trace)
	}
	if w.Assignment[k] != logic.Zero {
		t.Errorf("assignment = %v", w.Assignment)
	}
	if res.Stats.ReducedWords != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestIdentifyPairAssignment(t *testing.T) {
	nl, bits, k, k2 := wordNet(t, 4, true)
	res := Identify(nl, Options{CollectTrace: true})
	w := findWord(res, bits)
	if w == nil || !w.Verified {
		t.Fatalf("word not verified; trace: %v", res.Trace)
	}
	if len(w.Controls) != 2 {
		t.Fatalf("controls = %v, want pair {k, k2}; trace: %v", w.Controls, res.Trace)
	}
	got := map[netlist.NetID]bool{w.Controls[0]: true, w.Controls[1]: true}
	if !got[k] || !got[k2] {
		t.Errorf("controls = %v, want {%d,%d}", w.Controls, k, k2)
	}
}

func TestIdentifyMaxAssignOneFailsPair(t *testing.T) {
	nl, bits, _, _ := wordNet(t, 4, true)
	res := Identify(nl, Options{MaxAssign: 1, NoPartialGroups: true})
	w := findWord(res, bits)
	if w != nil && w.Verified && len(w.Controls) == 2 {
		t.Error("pair assignment used despite MaxAssign=1")
	}
	// With the cohesion rule disabled and only single assignments, the
	// word cannot be emitted whole.
	if w != nil {
		t.Errorf("word found whole with MaxAssign=1 and no partial groups: %+v", w)
	}
}

func TestIdentifyCohesionRule(t *testing.T) {
	// Without control signals (divergent subtrees over disjoint nets), the
	// cohesion rule still emits the whole subgroup.
	nl := netlist.New("t")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	s1, s2 := pi("s1"), pi("s2")
	type spec struct{ x, y, z netlist.NetID }
	var specs []spec
	kinds := []logic.Kind{logic.And, logic.Or, logic.Xor}
	for i := 0; i < 3; i++ {
		sfx := string(rune('0' + i))
		a, b, u, v := pi("a"+sfx), pi("b"+sfx), pi("u"+sfx), pi("v"+sfx)
		x := nl.MustNet("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, a, s1)
		y := nl.MustNet("y" + sfx)
		nl.MustGate("gy"+sfx, logic.Nand, y, b, s2)
		z := nl.MustNet("z" + sfx)
		nl.MustGate("gz"+sfx, kinds[i], z, u, v)
		specs = append(specs, spec{x, y, z})
	}
	var bits []netlist.NetID
	for i, s := range specs {
		bit := nl.MustNet("bit" + string(rune('0'+i)))
		nl.MustGate("gb"+string(rune('0'+i)), logic.Nand, bit, s.x, s.y, s.z)
		bits = append(bits, bit)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Identify(nl, Options{})
	w := findWord(res, bits)
	if w == nil {
		t.Fatal("cohesive subgroup not emitted")
	}
	if w.Verified || len(w.Controls) != 0 {
		t.Errorf("cohesion-rule word must be unverified and control-free: %+v", w)
	}
	if res.Stats.PartialGroupWords != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}

	// Ablation: with the rule off the word is not emitted whole.
	res = Identify(nl, Options{NoPartialGroups: true})
	if findWord(res, bits) != nil {
		t.Error("NoPartialGroups still emitted the cohesive subgroup")
	}
}

func TestIdentifyFullySimilarNeedsNoControls(t *testing.T) {
	nl := netlist.New("t")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	s := pi("s")
	var xs, bits []netlist.NetID
	for i := 0; i < 3; i++ {
		sfx := string(rune('0' + i))
		a := pi("a" + sfx)
		x := nl.MustNet("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, a, s)
		xs = append(xs, x)
	}
	for i, x := range xs {
		bit := nl.MustNet("bit" + string(rune('0'+i)))
		nl.MustGate("gb"+string(rune('0'+i)), logic.Nand, bit, x, x)
		bits = append(bits, bit)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Identify(nl, Options{})
	w := findWord(res, bits)
	if w == nil || !w.Verified || len(w.Controls) != 0 {
		t.Fatalf("fully similar word mishandled: %+v", w)
	}
	if res.Stats.Reductions != 0 {
		t.Errorf("no reductions expected: %+v", res.Stats)
	}
}

func TestIdentifyDeterministic(t *testing.T) {
	nl, _, _, _ := wordNet(t, 4, true)
	a := Identify(nl, Options{})
	b := Identify(nl, Options{})
	if len(a.Words) != len(b.Words) {
		t.Fatal("word count differs across runs")
	}
	for i := range a.Words {
		if len(a.Words[i].Bits) != len(b.Words[i].Bits) {
			t.Fatal("word sizes differ across runs")
		}
		for j := range a.Words[i].Bits {
			if a.Words[i].Bits[j] != b.Words[i].Bits[j] {
				t.Fatal("word bits differ across runs")
			}
		}
	}
	if len(a.UsedControlSignals) != len(b.UsedControlSignals) {
		t.Fatal("control signals differ across runs")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Depth != 4 || o.MaxAssign != 2 || o.Theta != 0.5 {
		t.Errorf("defaults: %+v", o)
	}
	if o := (Options{MaxAssign: 9}).withDefaults(); o.MaxAssign != 3 {
		t.Errorf("MaxAssign clamp: %d", o.MaxAssign)
	}
}

func TestGeneratedWords(t *testing.T) {
	nl, bits, _, _ := wordNet(t, 3, false)
	res := Identify(nl, Options{})
	gen := res.GeneratedWords()
	if len(gen) != len(res.Words) {
		t.Fatal("length mismatch")
	}
	_ = bits
}

func TestOptionsDepthClamp(t *testing.T) {
	if o := (Options{Depth: 1 << 20}).withDefaults(); o.Depth != cone.MaxDepth {
		t.Errorf("Depth clamp: %d, want %d", o.Depth, cone.MaxDepth)
	}
	if o := (Options{Depth: -3}).withDefaults(); o.Depth != cone.DefaultDepth {
		t.Errorf("Depth default: %d, want %d", o.Depth, cone.DefaultDepth)
	}
}

// TestStatsTrialsVsReductions pins the accounting contract: Trials counts
// every assignment the enumeration admitted and propagated; Reductions counts
// only the feasible ones. The trace records each, so the counters must agree
// with the trace line-for-line.
func TestStatsTrialsVsReductions(t *testing.T) {
	nl, _, _, _ := wordNet(t, 4, true)
	res := Identify(nl, Options{CollectTrace: true})
	trialLines, classLines := 0, 0
	for _, line := range res.Trace {
		if strings.Contains(line, ": trial ") {
			trialLines++
		}
		if strings.Contains(line, "-> max class") {
			classLines++
		}
	}
	if res.Stats.Trials != trialLines {
		t.Errorf("Stats.Trials = %d, %d trial lines in trace", res.Stats.Trials, trialLines)
	}
	if res.Stats.Reductions != classLines {
		t.Errorf("Stats.Reductions = %d, %d feasible-trial lines in trace", res.Stats.Reductions, classLines)
	}
	if res.Stats.Reductions > res.Stats.Trials {
		t.Errorf("Reductions %d exceeds Trials %d", res.Stats.Reductions, res.Stats.Trials)
	}
	if res.Stats.Trials == 0 {
		t.Error("expected at least one trial on the two-signal circuit")
	}
}

// TestTryAssignmentAccounting drives tryAssignment directly: an infeasible
// assignment must not count as a reduction, a feasible one must.
func TestTryAssignmentAccounting(t *testing.T) {
	nl := netlist.New("t")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	k, a, b := pi("k"), pi("a"), pi("b")
	z := nl.MustNet("z")
	nl.MustGate("gz", logic.Not, z, k)
	bit := nl.MustNet("bit")
	nl.MustGate("gb", logic.Nand, bit, a, b)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	p := newPipeline(nl, Options{}.withDefaults(), nil)
	p.b = cone.NewBuilder(nl, cone.NewInterner(), p.opt.Depth)
	bits := []*cone.BitCone{p.b.Bit(bit)}
	if bits[0] == nil {
		t.Fatal("no cone for bit")
	}
	// k=0 forces z=1; also asserting z=0 is a contradiction.
	if tr := p.tryAssignment(bits, map[netlist.NetID]logic.Value{k: logic.Zero, z: logic.Zero}); tr != nil {
		t.Fatal("contradictory assignment accepted")
	}
	if p.stats.Reductions != 0 {
		t.Errorf("infeasible trial counted as reduction: %+v", p.stats)
	}

	tr := p.tryAssignment(bits, map[netlist.NetID]logic.Value{k: logic.Zero})
	if tr == nil {
		t.Fatal("feasible assignment rejected")
	}
	if p.stats.Reductions != 1 {
		t.Errorf("feasible trial not counted: %+v", p.stats)
	}
	if tr.maxClass != 1 || len(tr.classes) != 1 {
		t.Errorf("trial classes: %+v", tr)
	}
}

// TestFallbackSingletonsUnverified is the regression test for the
// tautological Verified flag: when a subgroup neither equalizes under any
// assignment nor passes the cohesion test, the fallback classes that are
// singletons carry no verification evidence and must be emitted unverified.
func TestFallbackSingletonsUnverified(t *testing.T) {
	nl := netlist.New("t")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	s := pi("s")
	zKinds := [][2]logic.Kind{
		{logic.And, logic.Or},
		{logic.Xor, logic.Nor},
		{logic.Xnor, logic.Aoi21},
	}
	type spec struct{ x, z1, z2 netlist.NetID }
	var specs []spec
	for i := 0; i < 3; i++ {
		sfx := string(rune('0' + i))
		a := pi("a" + sfx)
		x := nl.MustNet("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, a, s)
		// Two divergent subtrees per bit over bit-private PIs: similarity is
		// 1/3 < Theta, and the dissimilar regions share no nets, so no
		// control signal exists and no assignment is ever tried.
		u, v, w, r := pi("u"+sfx), pi("v"+sfx), pi("w"+sfx), pi("r"+sfx)
		z1 := nl.MustNet("z1" + sfx)
		nl.MustGate("gz1"+sfx, zKinds[i][0], z1, u, v)
		z2 := nl.MustNet("z2" + sfx)
		if zKinds[i][1] == logic.Aoi21 {
			nl.MustGate("gz2"+sfx, zKinds[i][1], z2, w, r, pi("t"+sfx))
		} else {
			nl.MustGate("gz2"+sfx, zKinds[i][1], z2, w, r)
		}
		specs = append(specs, spec{x, z1, z2})
	}
	var bits []netlist.NetID
	for i, sp := range specs {
		sfx := string(rune('0' + i))
		bit := nl.MustNet("bit" + sfx)
		nl.MustGate("gb"+sfx, logic.Nand, bit, sp.x, sp.z1, sp.z2)
		bits = append(bits, bit)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Identify(nl, Options{CollectTrace: true})
	if w := findWord(res, bits); w != nil {
		t.Fatalf("subgroup emitted whole despite cohesion failure: %+v (trace %v)", w, res.Trace)
	}
	for _, b := range bits {
		w := findWord(res, []netlist.NetID{b})
		if w == nil {
			t.Fatalf("bit %s not emitted; trace: %v", nl.NetName(b), res.Trace)
		}
		if len(w.Bits) != 1 {
			continue // part of a larger (verified) class, not this bug's path
		}
		if w.Verified {
			t.Errorf("fallback singleton %s emitted as verified", nl.NetName(b))
		}
	}
}

// TestBestTrialSurvivesLaterTrials pins the detach in the trial loop: with
// reduction verification on, a best trial followed by more trials must
// still hold its own reduction once the loop ends, although every trial
// propagates on the same reused state. k=0 makes two of the three bits
// similar (the best trial); the other three trials improve nothing. The
// reduction is compared on its region, where a scoped apply is exact.
func TestBestTrialSurvivesLaterTrials(t *testing.T) {
	nl := netlist.New("t")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	s, k, j := pi("s"), pi("k"), pi("j")
	zs := []func(z netlist.NetID){
		func(z netlist.NetID) { nl.MustGate("gz0", logic.Nand, z, pi("c0"), k) },
		func(z netlist.NetID) { nl.MustGate("gz1", logic.Nand, z, pi("c1"), pi("m1"), k) },
		func(z netlist.NetID) { nl.MustGate("gz2", logic.Xor, z, pi("c2"), pi("d2")) },
	}
	var nets []netlist.NetID
	for i, mkZ := range zs {
		sfx := string(rune('0' + i))
		x := nl.MustNet("x" + sfx)
		nl.MustGate("gx"+sfx, logic.Nand, x, pi("a"+sfx), s)
		z := nl.MustNet("z" + sfx)
		mkZ(z)
		bit := nl.MustNet("bit" + sfx)
		nl.MustGate("gb"+sfx, logic.Nand, bit, x, z)
		nets = append(nets, bit)
	}
	nl.MustGate("gj", logic.Not, nl.MustNet("nj"), j)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}

	p := newPipeline(nl, Options{VerifyReduction: true}.withDefaults(), nil)
	p.b = cone.NewBuilder(nl, cone.NewInterner(), p.opt.Depth)
	var bits []*cone.BitCone
	for _, n := range nets {
		bits = append(bits, p.b.Bit(n))
	}
	values := []logic.Value{logic.Zero, logic.One}
	signals := []ctrlsig.Signal{{Net: k, Values: values}, {Net: j, Values: values}}
	p.opt.MaxAssign = 1
	best, trials, _ := p.runTrials(bits, signals, maxClassSize(classesByKey(bits, nil)))
	kZero := map[netlist.NetID]logic.Value{k: logic.Zero}
	if best == nil || best.maxClass != 2 || !reflect.DeepEqual(best.assign, kZero) || trials != 4 {
		t.Fatalf("want best trial k=0 with a 2-bit class, then three more trials; got %+v after %d trials", best, trials)
	}
	want, err := reduce.Apply(nl, kZero)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range FaninRegion(nl, nets, kZero) {
		n := netlist.NetID(i)
		if got := best.red.Value(n); in && got != want.Value(n) {
			t.Fatalf("net %s = %s in the best trial's reduction after later trials, want %s",
				nl.NetName(n), got, want.Value(n))
		}
	}
}

package eqcheck_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"gatewords/internal/aig"
	"gatewords/internal/bench"
	"gatewords/internal/eqcheck"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
	"gatewords/internal/synth"
)

// updateGoldens rewrites testdata/checknetlists_goldens.json from the
// current code:
//
//	go test ./internal/eqcheck/ -run TestCheckNetlistsGoldens -update-goldens
//
// Regenerate only when a change is meant to alter verdicts, stages,
// counterexamples or solver work, and say so in the change description.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/checknetlists_goldens.json")

const checkNetlistsGoldensPath = "testdata/checknetlists_goldens.json"

// checkGolden pins one CheckNetlists run: the digest of the marshalled
// NetlistResult (verdicts, stages, counterexamples and Stats of every
// output), the observer's nonzero counters, and the verdict/stage split,
// which is there to make a digest mismatch readable.
type checkGolden struct {
	Name         string           `json:"name"`
	ResultSHA256 string           `json:"result_sha256"`
	Counters     map[string]int64 `json:"counters"`
	Stages       map[string]int   `json:"stages"`
}

// goldenOptionSets are the option sets every golden pair runs under: the
// defaults, each stage switched off or starved in turn, and a budget small
// enough to climb the retry ladder.
var goldenOptionSets = []struct {
	name string
	opt  eqcheck.Options
}{
	{"default", eqcheck.Options{}},
	{"nosim", eqcheck.Options{SimRounds: -1}},
	{"sim2", eqcheck.Options{SimRounds: 2}},
	{"budget3-retry2", eqcheck.Options{MaxConflicts: 3, RetryUnknown: 2}},
	{"nosat", eqcheck.Options{MaxConflicts: -1}},
}

// goldenPair is one design and the netlist it is checked against.
type goldenPair struct {
	name   string
	na, nb *netlist.Netlist
}

// goldenPairs generates analog name against its resynthesis (NAND muxes,
// fanin cap 2) three ways: unmutated, with one internal NAND2 turned into an
// AND2, and with the driver of one strash-equal output flipped to its dual
// kind, which makes that output's miter the constant true.
func goldenPairs(t *testing.T, analog string) []goldenPair {
	t.Helper()
	p, ok := bench.ProfileByName(analog)
	if !ok {
		t.Fatalf("benchmark %s not registered", analog)
	}
	gen, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	alt, err := gen.Resynthesize(synth.Options{MuxStyle: synth.MuxNand, MaxFanin: 2})
	if err != nil {
		t.Fatal(err)
	}

	swapped := alt.Clone()
	if !swapInternalNand(t, gen.NL, swapped) {
		t.Fatalf("%s: no internal NAND2 whose swap reaches an output", analog)
	}

	flipped := alt.Clone()
	if !flipStrashEqualOutput(t, gen.NL, flipped) {
		t.Fatalf("%s: no strash-equal output with a dual-kind driver", analog)
	}
	return []goldenPair{
		{analog + "/unmutated", gen.NL, alt},
		{analog + "/nand2-to-and2", gen.NL, swapped},
		{analog + "/dual-output", gen.NL, flipped},
	}
}

// lowerPair lowers both netlists into one AIG the way CheckNetlists does.
func lowerPair(t *testing.T, na, nb *netlist.Netlist) (fa, fb *aig.Frame) {
	t.Helper()
	eff := map[string]logic.Value{"$const0": logic.Zero, "$const1": logic.One}
	g := aig.New()
	fa, err := aig.AddFrame(g, na, eff)
	if err != nil {
		t.Fatal(err)
	}
	fb, err = aig.AddFrame(g, nb, eff)
	if err != nil {
		t.Fatal(err)
	}
	return fa, fb
}

// swapInternalNand turns one NAND2 of nb whose output is not a primary
// output into an AND2: the first one, from the middle of the gate list on,
// after which an observable that strash-equalled na's is neither na's nor
// its complement, so simulation or SAT has to find the change.
func swapInternalNand(t *testing.T, na, nb *netlist.Netlist) bool {
	t.Helper()
	fa, fb := lowerPair(t, na, nb)
	var equal []string
	for _, name := range fa.OutputNames {
		if lb, ok := fb.Outputs[name]; ok && lb == fa.Outputs[name] {
			equal = append(equal, name)
		}
	}
	for i := 0; i < nb.GateCount(); i++ {
		g := nb.Gate(netlist.GateID((nb.GateCount()/2 + i) % nb.GateCount()))
		if g.Kind != logic.Nand || len(g.Inputs) != 2 || nb.Net(g.Output).IsPO {
			continue
		}
		g.Kind = logic.And
		fa, fb := lowerPair(t, na, nb)
		for _, name := range equal {
			if la, lb := fa.Outputs[name], fb.Outputs[name]; lb != la && lb != la.Not() {
				return true
			}
		}
		g.Kind = logic.Nand
	}
	return false
}

// flipStrashEqualOutput flips the driver of nb's first observable that
// strash-equals na's to its dual kind (AND↔NAND, OR↔NOR, XOR↔XNOR,
// NOT↔BUF), so that observable computes the complement of na's.
func flipStrashEqualOutput(t *testing.T, na, nb *netlist.Netlist) bool {
	t.Helper()
	fa, fb := lowerPair(t, na, nb)
	duals := map[logic.Kind]logic.Kind{
		logic.And: logic.Nand, logic.Nand: logic.And,
		logic.Or: logic.Nor, logic.Nor: logic.Or,
		logic.Xor: logic.Xnor, logic.Xnor: logic.Xor,
		logic.Not: logic.Buf, logic.Buf: logic.Not,
	}
	dffs := make(map[string]netlist.GateID)
	for _, gid := range nb.DFFs() {
		dffs[aig.FFPrefix+nb.Gate(gid).Name] = gid
	}
	for _, name := range fa.OutputNames {
		lb, ok := fb.Outputs[name]
		if !ok || lb != fa.Outputs[name] {
			continue
		}
		var net netlist.NetID
		if gid, ok := dffs[name]; ok {
			net = nb.Gate(gid).Inputs[0]
		} else if net, ok = nb.NetByName(name); !ok {
			continue
		}
		drv := nb.Net(net).Driver
		if drv == netlist.NoGate {
			continue
		}
		if d, ok := duals[nb.Gate(drv).Kind]; ok {
			nb.Gate(drv).Kind = d
			return true
		}
	}
	return false
}

// observeCheck runs CheckNetlists on one pair under one option set and
// collects its golden record.
func observeCheck(t *testing.T, name string, na, nb *netlist.Netlist, opt eqcheck.Options) checkGolden {
	t.Helper()
	rec := obs.New()
	opt.Observer = rec
	res, err := eqcheck.CheckNetlists(na, nb, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	out := checkGolden{
		Name:         name,
		ResultSHA256: hex.EncodeToString(sum[:]),
		Counters:     make(map[string]int64),
		Stages:       make(map[string]int),
	}
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		if v := rec.Count(c); v != 0 {
			out.Counters[c.String()] = v
		}
	}
	for _, oc := range res.Outputs {
		out.Stages[fmt.Sprintf("%v/%s", oc.Verdict, oc.Stage)]++
	}
	return out
}

// TestCheckNetlistsGoldens pins CheckNetlists byte for byte — every verdict,
// stage, counterexample and Stats field, plus the obs counters — on the b08,
// b13 and b15 analogs against their resyntheses, unmutated and with two kinds
// of mutation, under every option set above. b15a is skipped under -short;
// the full run also fails on a golden record that no case produces.
func TestCheckNetlistsGoldens(t *testing.T) {
	analogs := []string{"b08a", "b13a", "b15a"}
	if testing.Short() {
		analogs = analogs[:2]
	}
	var got []checkGolden
	for _, analog := range analogs {
		for _, pair := range goldenPairs(t, analog) {
			for _, set := range goldenOptionSets {
				g := observeCheck(t, pair.name+"/"+set.name, pair.na, pair.nb, set.opt)
				if pair.name == analog+"/dual-output" && g.Stages["not-equivalent/strash"] == 0 {
					t.Errorf("%s: the flipped output did not give a constant-true miter", g.Name)
				}
				got = append(got, g)
			}
		}
	}

	if *updateGoldens {
		if testing.Short() {
			t.Fatal("-update-goldens needs the full set; run without -short")
		}
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkNetlistsGoldensPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(checkNetlistsGoldensPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-goldens)", err)
	}
	var want []checkGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]checkGolden, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	if len(byName) != len(want) || !testing.Short() && len(want) != len(got) {
		t.Fatalf("%d golden records for %d cases (regenerate with -update-goldens)", len(want), len(got))
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: no golden record (regenerate with -update-goldens)", g.Name)
			continue
		}
		if !reflect.DeepEqual(g.Stages, w.Stages) {
			t.Errorf("%s: verdict/stage split %v, golden %v", g.Name, g.Stages, w.Stages)
		}
		if !reflect.DeepEqual(g.Counters, w.Counters) {
			t.Errorf("%s: counters %v, golden %v", g.Name, g.Counters, w.Counters)
		}
		if g.ResultSHA256 != w.ResultSHA256 {
			t.Errorf("%s: result digest %s, golden %s", g.Name, g.ResultSHA256, w.ResultSHA256)
		}
	}
}

package netlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// clean builds a minimal well-formed netlist: q = DFF(NAND(a, b)), q is PO.
func clean() *netlist.Netlist {
	nl := netlist.New("clean")
	a := nl.MustNet("a")
	b := nl.MustNet("b")
	y := nl.MustNet("y")
	q := nl.MustNet("q")
	nl.MarkPI(a)
	nl.MarkPI(b)
	nl.MarkPO(q)
	nl.MustGate("g1", logic.Nand, y, a, b)
	nl.MustGate("ff", logic.DFF, q, y)
	return nl
}

func ruleIDs(res *Result) map[string]int {
	out := map[string]int{}
	for _, d := range res.Diagnostics {
		out[d.Rule]++
	}
	return out
}

// TestRuleTriggers runs each rule's minimal trigger netlist and checks the
// rule fires — and that the clean netlist stays silent.
func TestRuleTriggers(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Netlist
		want  string // rule ID that must fire
		count int    // expected diagnostics for that rule (0 = at least one)
	}{
		{
			name: "NL001 arity",
			build: func() *netlist.Netlist {
				nl := netlist.New("t")
				a := nl.MustNet("a")
				nl.MarkPI(a)
				y := nl.MustNet("y")
				nl.AddGateLenient("bad", logic.Nand, y, a) // NAND needs >= 2 inputs
				nl.MarkPO(y)
				return nl
			},
			want: "NL001", count: 1,
		},
		{
			name: "NL002 graph-consistency",
			build: func() *netlist.Netlist {
				nl := clean()
				// Corrupt a fanout list: point net q at gate 0, which does
				// not read it.
				nl.Net(nl.POs()[0]).Fanout = append(nl.Net(nl.POs()[0]).Fanout, 0)
				return nl
			},
			want: "NL002", count: 1,
		},
		{
			name: "NL003 multi-driver",
			build: func() *netlist.Netlist {
				nl := clean()
				a, _ := nl.NetByName("a")
				y, _ := nl.NetByName("y")
				nl.AddGateLenient("g2", logic.Not, y, a)
				return nl
			},
			want: "NL003", count: 1,
		},
		{
			name: "NL004 undriven",
			build: func() *netlist.Netlist {
				nl := clean()
				f := nl.MustNet("floating_in")
				q2 := nl.MustNet("q2")
				nl.MustGate("g3", logic.Not, q2, f)
				nl.MarkPO(q2)
				return nl
			},
			want: "NL004", count: 1,
		},
		{
			name: "NL005 pi-driven",
			build: func() *netlist.Netlist {
				nl := clean()
				y, _ := nl.NetByName("y")
				nl.MarkPI(y)
				return nl
			},
			want: "NL005", count: 1,
		},
		{
			name: "NL006 dup-gate-name",
			build: func() *netlist.Netlist {
				nl := clean()
				a, _ := nl.NetByName("a")
				z := nl.MustNet("z")
				nl.MustGate("g1", logic.Not, z, a) // name collides with the NAND
				nl.MarkPO(z)
				return nl
			},
			want: "NL006", count: 1,
		},
		{
			name: "NL100 comb-cycle",
			build: func() *netlist.Netlist {
				nl := clean()
				x := nl.MustNet("x")
				w := nl.MustNet("w")
				nl.MustGate("ring1", logic.Not, x, w)
				nl.MustGate("ring2", logic.Not, w, x)
				return nl
			},
			want: "NL100", count: 1,
		},
		{
			name: "NL200 floating-net",
			build: func() *netlist.Netlist {
				nl := clean()
				a, _ := nl.NetByName("a")
				dangle := nl.MustNet("dangle")
				nl.MustGate("g2", logic.Not, dangle, a) // driven, never read
				return nl
			},
			want: "NL200", count: 1,
		},
		{
			name: "NL201 dead-logic",
			build: func() *netlist.Netlist {
				nl := clean()
				a, _ := nl.NetByName("a")
				d1 := nl.MustNet("d1")
				d2 := nl.MustNet("d2")
				nl.MustGate("dead1", logic.Not, d1, a)
				nl.MustGate("dead2", logic.Not, d2, d1) // chain off any PO path
				return nl
			},
			want: "NL201", count: 2,
		},
		{
			name: "NL202 const-foldable",
			build: func() *netlist.Netlist {
				nl := clean()
				a, _ := nl.NetByName("a")
				z := nl.MustNet("z")
				nl.MustGate("tied", logic.Xor, z, a, a)
				nl.MarkPO(z)
				return nl
			},
			want: "NL202", count: 1,
		},
		{
			name: "NL203 dup-driver",
			build: func() *netlist.Netlist {
				nl := clean()
				a, _ := nl.NetByName("a")
				b, _ := nl.NetByName("b")
				z1 := nl.MustNet("z1")
				z2 := nl.MustNet("z2")
				nl.MustGate("twin1", logic.Nand, z1, a, b)
				nl.MustGate("twin2", logic.Nand, z2, b, a) // commutative: same key
				nl.MarkPO(z1)
				nl.MarkPO(z2)
				return nl
			},
			want: "NL203", count: 1,
		},
		{
			name: "NL204 x-source",
			build: func() *netlist.Netlist {
				nl := clean()
				f := nl.MustNet("phantom")
				q2 := nl.MustNet("q2")
				nl.MustGate("reader", logic.Not, q2, f)
				nl.MarkPO(q2)
				return nl
			},
			want: "NL204", count: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(tc.build(), Config{})
			got := ruleIDs(res)
			if got[tc.want] == 0 {
				t.Fatalf("rule %s did not fire; diagnostics: %+v", tc.want, res.Diagnostics)
			}
			if tc.count > 0 && got[tc.want] != tc.count {
				t.Errorf("rule %s fired %d times, want %d: %+v", tc.want, got[tc.want], tc.count, res.ByRule(tc.want))
			}
		})
	}
}

func TestCleanNetlistIsSilent(t *testing.T) {
	res := Run(clean(), Config{})
	if len(res.Diagnostics) != 0 {
		t.Errorf("clean netlist produced diagnostics: %+v", res.Diagnostics)
	}
	if _, any := res.Max(); any {
		t.Error("Max reported a severity on a clean run")
	}
}

func TestDupDriverGateTwinsShareGroup(t *testing.T) {
	nl := clean()
	a, _ := nl.NetByName("a")
	b, _ := nl.NetByName("b")
	z1 := nl.MustNet("z1")
	z2 := nl.MustNet("z2")
	z3 := nl.MustNet("z3")
	nl.MustGate("t1", logic.And, z1, a, b)
	nl.MustGate("t2", logic.And, z2, b, a)
	nl.MustGate("m1", logic.Mux2, z3, a, z1, z2) // ordered kind, unique
	for _, z := range []netlist.NetID{z1, z2, z3} {
		nl.MarkPO(z)
	}
	ds := Run(nl, Config{}).ByRule("NL203")
	if len(ds) != 1 || len(ds[0].Gates) != 2 {
		t.Fatalf("NL203 = %+v", ds)
	}
	if ds[0].Gates[0] != "t1" || ds[0].Gates[1] != "t2" {
		t.Errorf("group members = %v", ds[0].Gates)
	}
}

func TestMux2OrderedPinsNotDupDriver(t *testing.T) {
	nl := clean()
	a, _ := nl.NetByName("a")
	b, _ := nl.NetByName("b")
	y, _ := nl.NetByName("y")
	z1 := nl.MustNet("z1")
	z2 := nl.MustNet("z2")
	// Same pin multiset, different order: MUX2 is not commutative, so these
	// are NOT identical drivers.
	nl.MustGate("m1", logic.Mux2, z1, a, b, y)
	nl.MustGate("m2", logic.Mux2, z2, a, y, b)
	nl.MarkPO(z1)
	nl.MarkPO(z2)
	if ds := Run(nl, Config{}).ByRule("NL203"); len(ds) != 0 {
		t.Errorf("MUX2 pin order ignored: %+v", ds)
	}
}

func TestCombCycleDiagnosticNamesMembers(t *testing.T) {
	nl := clean()
	x := nl.MustNet("x")
	w := nl.MustNet("w")
	nl.MustGate("ring1", logic.Not, x, w)
	nl.MustGate("ring2", logic.Not, w, x)
	ds := Run(nl, Config{}).ByRule("NL100")
	if len(ds) != 1 {
		t.Fatalf("NL100 = %+v", ds)
	}
	if len(ds[0].Gates) != 2 || ds[0].Gates[0] != "ring1" || ds[0].Gates[1] != "ring2" {
		t.Errorf("cycle members = %v", ds[0].Gates)
	}
	if !strings.Contains(ds[0].Message, "ring1") {
		t.Errorf("message does not name a member: %s", ds[0].Message)
	}
}

func TestConfigOnlyAndDisable(t *testing.T) {
	nl := clean()
	a, _ := nl.NetByName("a")
	y, _ := nl.NetByName("y")
	nl.AddGateLenient("g2", logic.Not, y, a) // NL003
	nl.MustNet("floating")                   // NL004 + NL200

	if got := ruleIDs(Run(nl, Config{Only: []string{"NL003"}})); len(got) != 1 || got["NL003"] != 1 {
		t.Errorf("Only by ID: %v", got)
	}
	if got := ruleIDs(Run(nl, Config{Only: []string{"multi-driver"}})); len(got) != 1 || got["NL003"] != 1 {
		t.Errorf("Only by name: %v", got)
	}
	got := ruleIDs(Run(nl, Config{Disable: []string{"NL003", "floating-net"}}))
	if got["NL003"] != 0 || got["NL200"] != 0 || got["NL004"] == 0 {
		t.Errorf("Disable: %v", got)
	}
}

func TestResultCountsAndMax(t *testing.T) {
	nl := clean()
	a, _ := nl.NetByName("a")
	y, _ := nl.NetByName("y")
	nl.AddGateLenient("g2", logic.Not, y, a) // error
	dangle := nl.MustNet("dangle")
	nl.MustGate("g3", logic.Not, dangle, a) // warn (floating) + warn (dead)
	res := Run(nl, Config{})
	if res.Errors == 0 || res.Warnings == 0 {
		t.Fatalf("counts: %+v", res)
	}
	if sev, any := res.Max(); !any || sev != Error {
		t.Errorf("Max = %v %v", sev, any)
	}
}

// TestAcceptance is the issue's acceptance scenario: a netlist carrying a
// combinational cycle, a multi-driven net and a floating net reports all
// three in one run, names the cycle members, carries error severity, and
// the JSON serialization is byte-identical across runs.
func TestAcceptance(t *testing.T) {
	build := func() *netlist.Netlist {
		nl := clean()
		a, _ := nl.NetByName("a")
		y, _ := nl.NetByName("y")
		// Cycle.
		x := nl.MustNet("x")
		w := nl.MustNet("w")
		nl.MustGate("ring1", logic.Not, x, w)
		nl.MustGate("ring2", logic.Not, w, x)
		// Multi-driver.
		nl.AddGateLenient("second", logic.Not, y, a)
		// Floating.
		dangle := nl.MustNet("dangle")
		nl.MustGate("dr", logic.Not, dangle, a)
		return nl
	}
	res := Run(build(), Config{})
	got := ruleIDs(res)
	for _, want := range []string{"NL100", "NL003", "NL200"} {
		if got[want] == 0 {
			t.Errorf("missing %s; got %v", want, got)
		}
	}
	if cyc := res.ByRule("NL100"); len(cyc) == 0 || len(cyc[0].Gates) == 0 {
		t.Error("cycle diagnostic does not name gates")
	}
	if sev, any := res.Max(); !any || sev != Error {
		t.Errorf("max severity = %v %v, want error", sev, any)
	}
	var buf1, buf2 bytes.Buffer
	if err := res.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := Run(build(), Config{}).WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("JSON output differs across identical runs")
	}
	var back Result
	if err := json.Unmarshal(buf1.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Errors != res.Errors || len(back.Diagnostics) != len(res.Diagnostics) {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}

func TestWriteTextFormat(t *testing.T) {
	nl := clean()
	a, _ := nl.NetByName("a")
	y, _ := nl.NetByName("y")
	nl.AddGateLenient("g2", logic.Not, y, a)
	var sb strings.Builder
	if err := Run(nl, Config{}).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "error NL003 multi-driver:") {
		t.Errorf("text output:\n%s", out)
	}
	if !strings.Contains(out, "1 error(s)") {
		t.Errorf("summary missing:\n%s", out)
	}
}

func TestCtrlFanoutHeuristic(t *testing.T) {
	nl := netlist.New("t")
	sel := nl.MustNet("sel")
	nl.MarkPI(sel)
	// 40 two-input gates; sel feeds every one (fanout 40), the partner nets
	// feed one each.
	for i := 0; i < 40; i++ {
		in := nl.MustNet(fmt.Sprintf("a%d", i))
		nl.MarkPI(in)
		out := nl.MustNet(fmt.Sprintf("o%d", i))
		nl.MustGate(fmt.Sprintf("g%d", i), logic.And, out, sel, in)
		nl.MarkPO(out)
	}
	ds := Run(nl, Config{Only: []string{"NL300"}}).ByRule("NL300")
	if len(ds) != 1 || ds[0].Nets[0] != "sel" {
		t.Fatalf("NL300 = %+v", ds)
	}
	if !strings.Contains(ds[0].Message, "candidate control signal") {
		t.Errorf("message: %s", ds[0].Message)
	}
}

func TestRulesRegistryStable(t *testing.T) {
	rs := Rules()
	if len(rs) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for i, r := range rs {
		if r.ID == "" || r.Name == "" || r.Doc == "" {
			t.Errorf("rule %d incomplete: %+v", i, r)
		}
		if seen[r.ID] || seen[r.Name] {
			t.Errorf("duplicate rule identity: %s/%s", r.ID, r.Name)
		}
		seen[r.ID], seen[r.Name] = true, true
		if i > 0 && rs[i-1].ID >= r.ID {
			t.Errorf("registry not sorted at %s", r.ID)
		}
	}
}

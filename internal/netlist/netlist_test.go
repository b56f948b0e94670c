package netlist

import (
	"strings"
	"testing"

	"gatewords/internal/logic"
)

// small builds a tiny valid netlist: y = NAND(a, b), q = DFF(y).
func small(t *testing.T) (*Netlist, NetID, NetID, NetID, NetID) {
	t.Helper()
	nl := New("small")
	a := nl.MustNet("a")
	b := nl.MustNet("b")
	y := nl.MustNet("y")
	q := nl.MustNet("q")
	nl.MarkPI(a)
	nl.MarkPI(b)
	nl.MarkPO(q)
	nl.MustGate("g1", logic.Nand, y, a, b)
	nl.MustGate("ff", logic.DFF, q, y)
	if err := nl.Validate(); err != nil {
		t.Fatalf("small netlist invalid: %v", err)
	}
	return nl, a, b, y, q
}

func TestAddNetErrors(t *testing.T) {
	nl := New("t")
	if _, err := nl.AddNet(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := nl.AddNet("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddNet("a"); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestEnsureNet(t *testing.T) {
	nl := New("t")
	a := nl.EnsureNet("a")
	if again := nl.EnsureNet("a"); again != a {
		t.Error("EnsureNet created a duplicate")
	}
	if nl.NetCount() != 1 {
		t.Errorf("NetCount = %d", nl.NetCount())
	}
}

func TestAddGateErrors(t *testing.T) {
	nl := New("t")
	a := nl.MustNet("a")
	y := nl.MustNet("y")
	nl.MarkPI(a)
	if _, err := nl.AddGate("g", logic.Invalid, y, a); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := nl.AddGate("g", logic.Nand, y, a); err == nil {
		t.Error("NAND with 1 input accepted")
	}
	if _, err := nl.AddGate("g", logic.Not, NetID(99), a); err == nil {
		t.Error("bad output net accepted")
	}
	if _, err := nl.AddGate("g", logic.Not, y, NetID(99)); err == nil {
		t.Error("bad input net accepted")
	}
	if _, err := nl.AddGate("g", logic.Not, y, a); err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddGate("g2", logic.Not, y, a); err == nil {
		t.Error("double-driven net accepted")
	}
}

func TestAccessors(t *testing.T) {
	nl, a, b, y, q := small(t)
	if nl.NetCount() != 4 || nl.GateCount() != 2 {
		t.Fatalf("counts: %d nets %d gates", nl.NetCount(), nl.GateCount())
	}
	if id, ok := nl.NetByName("y"); !ok || id != y {
		t.Error("NetByName(y) wrong")
	}
	if nl.NetName(NoNet) != "<none>" {
		t.Error("NetName(NoNet)")
	}
	if got := nl.PIs(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("PIs = %v", got)
	}
	if got := nl.POs(); len(got) != 1 || got[0] != q {
		t.Errorf("POs = %v", got)
	}
	if got := nl.DFFs(); len(got) != 1 || nl.Gate(got[0]).Name != "ff" {
		t.Errorf("DFFs = %v", got)
	}
	if nl.Net(y).Driver == NoGate || nl.Gate(nl.Net(y).Driver).Name != "g1" {
		t.Error("driver index wrong")
	}
}

func TestValidateCatchesUndriven(t *testing.T) {
	nl := New("t")
	nl.MustNet("floating")
	if err := nl.Validate(); err == nil || !strings.Contains(err.Error(), "undriven") {
		t.Errorf("undriven net not caught: %v", err)
	}
}

func TestValidateCatchesDrivenPI(t *testing.T) {
	nl := New("t")
	a := nl.MustNet("a")
	y := nl.MustNet("y")
	nl.MarkPI(a)
	nl.MustGate("g", logic.Not, y, a)
	nl.MarkPI(y) // now y is both driven and a PI
	if err := nl.Validate(); err == nil {
		t.Error("driven PI not caught")
	}
}

func TestValidateCatchesDuplicateGateNames(t *testing.T) {
	nl := New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	y1 := nl.MustNet("y1")
	y2 := nl.MustNet("y2")
	nl.MustGate("g", logic.Not, y1, a)
	nl.MustGate("g", logic.Not, y2, a)
	if err := nl.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate gate name") {
		t.Errorf("duplicate gate name not caught: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	nl, a, _, y, _ := small(t)
	cp := nl.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Mutating the clone must not affect the original.
	z := cp.MustNet("z")
	cp.MustGate("g2", logic.Not, z, a)
	if nl.NetCount() == cp.NetCount() || nl.GateCount() == cp.GateCount() {
		t.Error("clone shares storage with original")
	}
	cp.Net(y).Fanout = append(cp.Net(y).Fanout, GateID(0))
	if len(nl.Net(y).Fanout) == len(cp.Net(y).Fanout) {
		t.Error("fanout slices shared")
	}
	if _, ok := nl.NetByName("z"); ok {
		t.Error("byName map shared")
	}
}

func TestComputeStats(t *testing.T) {
	nl, _, _, _, _ := small(t)
	s := nl.ComputeStats()
	if s.Nets != 4 || s.Gates != 1 || s.DFFs != 1 || s.PIs != 2 || s.POs != 1 {
		t.Errorf("stats: %+v", s)
	}
	if s.ByKind[logic.Nand] != 1 || s.MaxFanin != 2 {
		t.Errorf("stats detail: %+v", s)
	}
}

func TestTopoOrder(t *testing.T) {
	nl := New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	n1 := nl.MustNet("n1")
	n2 := nl.MustNet("n2")
	n3 := nl.MustNet("n3")
	// Deliberately add in reverse dependency order.
	g3 := nl.MustGate("g3", logic.Not, n3, n2)
	_ = g3
	nl.MustGate("g2", logic.Not, n2, n1)
	nl.MustGate("g1", logic.Not, n1, a)
	order, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, g := range order {
		pos[nl.Gate(g).Name] = i
	}
	if !(pos["g1"] < pos["g2"] && pos["g2"] < pos["g3"]) {
		t.Errorf("topo order wrong: %v", pos)
	}
}

func TestTopoOrderDuplicatePins(t *testing.T) {
	// Regression: a gate reading one net on several pins used to be
	// decremented once per fanout entry *times* once per pin — double
	// counting that could schedule it before its other inputs' drivers.
	nl := New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	n1 := nl.MustNet("n1")
	n2 := nl.MustNet("n2")
	n3 := nl.MustNet("n3")
	// g2 reads n2 twice and n1 once; g1 (driver of n1) is added last so a
	// premature schedule of g2 would order it first.
	nl.MustGate("gbuf", logic.Not, n2, a)
	nl.MustGate("g2", logic.Xor, n3, n2, n2, n1)
	nl.MustGate("g1", logic.Not, n1, a)
	order, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, g := range order {
		pos[nl.Gate(g).Name] = i
	}
	if !(pos["g1"] < pos["g2"] && pos["gbuf"] < pos["g2"]) {
		t.Errorf("duplicate-pin gate ordered before its drivers: %v", pos)
	}
}

func TestTopoOrderThroughDFF(t *testing.T) {
	// A cycle through a DFF is legal sequential logic, not a combinational
	// cycle.
	nl := New("t")
	q := nl.MustNet("q")
	d := nl.MustNet("d")
	nl.MustGate("inv", logic.Not, d, q)
	nl.MustGate("ff", logic.DFF, q, d)
	if _, err := nl.TopoOrder(); err != nil {
		t.Errorf("DFF-closed loop rejected: %v", err)
	}
}

func TestTopoOrderDetectsCombinationalCycle(t *testing.T) {
	nl := New("t")
	x := nl.MustNet("x")
	y := nl.MustNet("y")
	nl.MustGate("g1", logic.Not, y, x)
	nl.MustGate("g2", logic.Not, x, y)
	if _, err := nl.TopoOrder(); err == nil {
		t.Error("combinational cycle not detected")
	}
}

func TestBaseViewImplementation(t *testing.T) {
	nl, a, _, y, q := small(t)
	if nl.DriverOf(a) != NoGate {
		t.Error("PI has a driver")
	}
	g := nl.DriverOf(y)
	if g == NoGate || nl.GateKind(g) != logic.Nand {
		t.Error("driver lookup wrong")
	}
	ins := nl.GateInputs(g, nil)
	if len(ins) != 2 {
		t.Errorf("GateInputs = %v", ins)
	}
	if _, isConst := nl.NetConst(q); isConst {
		t.Error("base view must report no constants")
	}
}

func TestWriteDOT(t *testing.T) {
	nl, _, _, _, _ := small(t)
	var sb strings.Builder
	if err := nl.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"digraph", "NAND", "DFF", "->"} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, out)
		}
	}
}

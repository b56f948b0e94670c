package netlist

import (
	"strings"
	"testing"

	"gatewords/internal/logic"
)

// TestValidateReportsAllViolations pins the collecting behavior: a netlist
// with several independent defects surfaces every one of them in a single
// Validate error instead of stopping at the first.
func TestValidateReportsAllViolations(t *testing.T) {
	nl := New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	nl.MustNet("floating") // undriven, not a PI
	y1 := nl.MustNet("y1")
	y2 := nl.MustNet("y2")
	nl.MustGate("dup", logic.Not, y1, a)
	nl.MustGate("dup", logic.Not, y2, a)            // duplicate gate name
	nl.AddGateLenient("second", logic.Not, y1, a)   // multi-driver on y1
	nl.AddGateLenient("starved", logic.Nand, y2, a) // wrong arity (also multi-driver)

	err := nl.Validate()
	if err == nil {
		t.Fatal("invalid netlist accepted")
	}
	msg := err.Error()
	for _, frag := range []string{
		"undriven",
		"duplicate gate name",
		`net "y1" driven by both "dup" and "second"`,
		"NAND with 1 inputs",
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("joined error missing %q:\n%v", frag, err)
		}
	}
}

func TestStructuralViolationsOrderAndIdentity(t *testing.T) {
	nl := New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	f := nl.MustNet("floating")
	y := nl.MustNet("y")
	nl.MustGate("g1", logic.Not, y, a)
	g2 := nl.AddGateLenient("g2", logic.Not, y, a)

	vs := nl.StructuralViolations()
	if len(vs) != 2 {
		t.Fatalf("violations = %+v", vs)
	}
	if vs[0].Code != CodeUndriven || vs[0].Net != f || vs[0].Gate != NoGate {
		t.Errorf("first violation: %+v", vs[0])
	}
	if vs[1].Code != CodeMultiDriver || vs[1].Net != y || vs[1].Gate != g2 {
		t.Errorf("second violation: %+v", vs[1])
	}
}

func TestAddGateLenientKeepsFirstDriver(t *testing.T) {
	nl := New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	y := nl.MustNet("y")
	g1 := nl.MustGate("g1", logic.Not, y, a)
	g2 := nl.AddGateLenient("g2", logic.Buf, y, a)
	if nl.Net(y).Driver != g1 {
		t.Errorf("first driver displaced: %v", nl.Net(y).Driver)
	}
	if nl.GateCount() != 2 {
		t.Errorf("lenient gate not recorded: %d gates", nl.GateCount())
	}
	extras := nl.ExtraDrivers()
	if len(extras) != 1 || extras[0].Net != y || extras[0].Gate != g2 {
		t.Errorf("extra drivers = %+v", extras)
	}
	// Fanout of the input still includes the lenient gate.
	if fan := nl.Net(a).Fanout; len(fan) != 2 {
		t.Errorf("fanout = %v", fan)
	}
}

func TestCloneCopiesExtraDrivers(t *testing.T) {
	nl := New("t")
	a := nl.MustNet("a")
	nl.MarkPI(a)
	y := nl.MustNet("y")
	nl.MustGate("g1", logic.Not, y, a)
	nl.AddGateLenient("g2", logic.Not, y, a)
	cp := nl.Clone()
	if len(cp.ExtraDrivers()) != 1 {
		t.Fatalf("clone lost extra drivers: %+v", cp.ExtraDrivers())
	}
	nl.AddGateLenient("g3", logic.Not, y, a)
	if len(cp.ExtraDrivers()) != 1 {
		t.Error("clone shares extraDrivers storage with original")
	}
}

// TestIrregularMarksEveryRefusal pins the flag that lets constant
// propagation trust the netlist's structure: a lenient gate AddGate would
// accept leaves it clear, each reason AddGate refuses a gate sets it, and
// Clone copies it.
func TestIrregularMarksEveryRefusal(t *testing.T) {
	cases := []struct {
		name string
		add  func(nl *Netlist, a, y NetID)
	}{
		{"invalid kind", func(nl *Netlist, a, y NetID) { nl.AddGateLenient("g", logic.Kind(250), y, a) }},
		{"arity", func(nl *Netlist, a, y NetID) { nl.AddGateLenient("g", logic.Nand, y, a) }},
		{"bad output", func(nl *Netlist, a, y NetID) { nl.AddGateLenient("g", logic.Not, NetID(99), a) }},
		{"bad input", func(nl *Netlist, a, y NetID) { nl.AddGateLenient("g", logic.Not, y, NetID(-5)) }},
		{"second driver", func(nl *Netlist, a, y NetID) {
			nl.MustGate("g1", logic.Not, y, a)
			nl.AddGateLenient("g2", logic.Buf, y, a)
		}},
	}
	for _, c := range cases {
		nl := New("t")
		a := nl.MustNet("a")
		nl.MarkPI(a)
		y := nl.MustNet("y")
		nl.AddGateLenient("ok", logic.Not, nl.MustNet("z"), a)
		if nl.Irregular() || nl.Clone().Irregular() {
			t.Fatalf("%s: a gate AddGate accepts made the netlist irregular", c.name)
		}
		c.add(nl, a, y)
		if !nl.Irregular() {
			t.Errorf("%s: not irregular", c.name)
		}
		if !nl.Clone().Irregular() {
			t.Errorf("%s: Clone dropped the flag", c.name)
		}
	}
}

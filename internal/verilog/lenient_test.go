package verilog

import (
	"strings"
	"testing"

	"gatewords/internal/netlist"
)

// The ParseLenient fixtures of this file. TestParseGoldens pins what each
// one parses to.
const (
	// lenientMultiDriverSrc drives y from two gates.
	lenientMultiDriverSrc = `
module m (a, b, y);
  input a, b;
  output y;
  not g1 (y, a);
  not g2 (y, b);
endmodule
`
	// lenientBadAritySrc has a NAND with one input.
	lenientBadAritySrc = `
module m (a, y);
  input a;
  output y;
  nand g1 (y, a);
endmodule
`
	// lenientUndrivenSrc reads a wire nothing drives.
	lenientUndrivenSrc = `
module m (a, y);
  input a;
  output y;
  wire phantom;
  and g1 (y, a, phantom);
endmodule
`
	// lenientCleanSrc is well formed.
	lenientCleanSrc = `
module m (a, b, q);
  input a, b;
  output q;
  wire w;
  nand g1 (w, a, b);
  DFF r (.D(w), .Q(q), .CK(a));
endmodule
`
	// lenientSyntaxSrc is not valid syntax.
	lenientSyntaxSrc = "module m (a; endmodule"
)

// TestParseLenientMultiDriver: strict Parse rejects a doubly-driven net at
// the second driver; ParseLenient keeps both gates and records the conflict.
func TestParseLenientMultiDriver(t *testing.T) {
	if _, err := Parse("t.v", lenientMultiDriverSrc); err == nil || !strings.Contains(err.Error(), "already driven") {
		t.Errorf("strict parse accepted multi-driver: %v", err)
	}
	nl, err := ParseLenient("t.v", lenientMultiDriverSrc)
	if err != nil {
		t.Fatal(err)
	}
	if nl.GateCount() != 2 {
		t.Fatalf("gates = %d, want both drivers kept", nl.GateCount())
	}
	extras := nl.ExtraDrivers()
	if len(extras) != 1 {
		t.Fatalf("extra drivers = %+v", extras)
	}
	y, _ := nl.NetByName("y")
	if extras[0].Net != y || nl.Gate(extras[0].Gate).Name != "g2" {
		t.Errorf("conflict misrecorded: %+v", extras[0])
	}
	vs := nl.StructuralViolations()
	found := false
	for _, v := range vs {
		if v.Code == netlist.CodeMultiDriver {
			found = true
		}
	}
	if !found {
		t.Errorf("violations = %+v", vs)
	}
}

// TestParseLenientBadArity: a NAND with one input parses leniently and
// surfaces as an arity violation rather than a parse error.
func TestParseLenientBadArity(t *testing.T) {
	if _, err := Parse("t.v", lenientBadAritySrc); err == nil {
		t.Error("strict parse accepted NAND/1")
	}
	nl, err := ParseLenient("t.v", lenientBadAritySrc)
	if err != nil {
		t.Fatal(err)
	}
	vs := nl.StructuralViolations()
	found := false
	for _, v := range vs {
		if v.Code == netlist.CodeArity {
			found = true
		}
	}
	if !found {
		t.Errorf("arity violation not recorded: %+v", vs)
	}
}

// TestParseLenientSkipsValidate: an undriven internal net fails strict
// parsing at Validate but survives a lenient parse for the linter to report.
func TestParseLenientSkipsValidate(t *testing.T) {
	if _, err := Parse("t.v", lenientUndrivenSrc); err == nil || !strings.Contains(err.Error(), "undriven") {
		t.Errorf("strict parse accepted undriven net: %v", err)
	}
	nl, err := ParseLenient("t.v", lenientUndrivenSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nl.NetByName("phantom"); !ok {
		t.Fatal("phantom net lost")
	}
}

// TestParseLenientSyntaxStillFails: leniency is structural only.
func TestParseLenientSyntaxStillFails(t *testing.T) {
	if _, err := ParseLenient("t.v", lenientSyntaxSrc); err == nil {
		t.Error("syntax error accepted")
	}
}

// TestParseLenientCleanMatchesStrict: on a well-formed module the two modes
// build the same netlist.
func TestParseLenientCleanMatchesStrict(t *testing.T) {
	strict, err := Parse("t.v", lenientCleanSrc)
	if err != nil {
		t.Fatal(err)
	}
	lenient, err := ParseLenient("t.v", lenientCleanSrc)
	if err != nil {
		t.Fatal(err)
	}
	if strict.GateCount() != lenient.GateCount() || strict.NetCount() != lenient.NetCount() {
		t.Errorf("strict %d/%d vs lenient %d/%d",
			strict.GateCount(), strict.NetCount(), lenient.GateCount(), lenient.NetCount())
	}
	if err := lenient.Validate(); err != nil {
		t.Errorf("lenient parse of clean module invalid: %v", err)
	}
}

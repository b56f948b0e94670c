package verilog

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

const hierSrc = `
// A two-level hierarchy: top instantiates two copies of a half-adder cell
// block and one nested wrapper.
module ha (a, b, s, c);
  input a, b;
  output s, c;
  XOR2 x (s, a, b);
  AND2 g (c, a, b);
endmodule

module wrap (p, q, o);
  input p, q;
  output o;
  wire t, u;
  ha inner (.a(p), .b(q), .s(t), .c(u));
  OR2 m (o, t, u);
endmodule

module top (a0, b0, a1, b1, s0, s1, w);
  input a0, b0, a1, b1;
  output s0, s1, w;
  wire c0, c1;
  ha u0 (a0, b0, s0, c0);
  ha u1 (.a(a1), .b(b1), .s(s1), .c(c1));
  wrap u2 (.p(c0), .q(c1), .o(w));
endmodule
`

func TestParseHierarchyAndElaborate(t *testing.T) {
	lib, err := ParseHierarchy(nil, "hier.v", hierSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.srcs) != 3 {
		t.Fatalf("parsed %d modules, want 3", len(lib.srcs))
	}
	top, err := lib.Top()
	if err != nil || top != "top" {
		t.Fatalf("top: %q %v", top, err)
	}
	nl, err := lib.Elaborate("top")
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 ha (2 gates each) + wrap (1 OR + its inner ha's 2) + nothing else.
	if nl.GateCount() != 7 {
		t.Errorf("gates: %d, want 7", nl.GateCount())
	}
	// Hierarchical names.
	for _, name := range []string{"u2/t", "u2/inner/s"} {
		// u2/inner's s output is bound to wrap-local t, so u2/inner/s must
		// NOT exist; u2/t must.
		_ = name
	}
	if _, ok := nl.NetByName("u2/t"); !ok {
		t.Error("inner wire u2/t missing")
	}
	if _, ok := nl.NetByName("u2/inner/s"); ok {
		t.Error("bound port net should alias the parent net, not exist separately")
	}
	// Gate naming.
	found := false
	for gi := 0; gi < nl.GateCount(); gi++ {
		if nl.Gate(int32g(gi)).Name == "u2/inner/x" {
			found = true
		}
	}
	if !found {
		t.Error("nested gate u2/inner/x missing")
	}
	// Functional sanity: s0 driven by an XOR reading a0, b0.
	s0, _ := nl.NetByName("s0")
	g := nl.Gate(nl.Net(s0).Driver)
	if g.Kind != logic.Xor {
		t.Errorf("s0 driver %s", g.Kind)
	}
	names := map[string]bool{}
	for _, in := range g.Inputs {
		names[nl.NetName(in)] = true
	}
	if !names["a0"] || !names["b0"] {
		t.Errorf("s0 inputs: %v", names)
	}
}

func TestElaborateWriterRoundTrip(t *testing.T) {
	lib, err := ParseHierarchy(nil, "hier.v", hierSrc)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := lib.Elaborate("top")
	if err != nil {
		t.Fatal(err)
	}
	text, err := WriteString(nl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse("flat.v", text)
	if err != nil {
		t.Fatalf("flattened netlist does not re-parse: %v\n%s", err, text)
	}
	if back.GateCount() != nl.GateCount() {
		t.Error("round trip changed gate count")
	}
}

func TestElaborateErrors(t *testing.T) {
	// Cycle.
	cyc := `
module ma (x); input x; mb i (.x(x)); endmodule
module mb (x); input x; ma i (.x(x)); endmodule
`
	lib, err := ParseHierarchy(nil, "c.v", cyc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Elaborate("ma"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}

	// Unknown module.
	if _, err := lib.Elaborate("zz"); err == nil {
		t.Error("unknown module accepted")
	}

	// Bad port name.
	badPort := `
module leaf (a, y); input a; output y; NOT g (y, a); endmodule
module top2 (p, q); input p; output q; leaf i (.nope(p), .y(q)); endmodule
`
	lib, err = ParseHierarchy(nil, "b.v", badPort)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Elaborate("top2"); err == nil || !strings.Contains(err.Error(), "no port") {
		t.Errorf("bad port not detected: %v", err)
	}

	// Vector port rejection.
	vec := `
module leafv (a, y); input [1:0] a; output y; AND2 g (y, a[0], a[1]); endmodule
module topv (p, q); input p; output q; leafv i (.a(p), .y(q)); endmodule
`
	lib, err = ParseHierarchy(nil, "v.v", vec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Elaborate("topv"); err == nil || !strings.Contains(err.Error(), "vector port") {
		t.Errorf("vector port not rejected: %v", err)
	}

	// Too many positional connections.
	many := `
module leaf2 (a, y); input a; output y; NOT g (y, a); endmodule
module top3 (p, q); input p; output q; leaf2 i (p, q, p); endmodule
`
	lib, err = ParseHierarchy(nil, "m.v", many)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Elaborate("top3"); err == nil || !strings.Contains(err.Error(), "too many connections") {
		t.Errorf("extra connection not detected: %v", err)
	}
}

func TestParseHierarchyErrors(t *testing.T) {
	if _, err := ParseHierarchy(nil, "e.v", "wire x;"); err == nil {
		t.Error("no modules accepted")
	}
	if _, err := ParseHierarchy(nil, "e.v", "module m (a); input a;"); err == nil {
		t.Error("missing endmodule accepted")
	}
}

func TestParseHierarchyAccumulates(t *testing.T) {
	lib, err := ParseHierarchy(nil, "1.v", "module leaf (a, y); input a; output y; NOT g (y, a); endmodule")
	if err != nil {
		t.Fatal(err)
	}
	lib, err = ParseHierarchy(lib, "2.v", "module t (p, q); input p; output q; leaf i (p, q); endmodule")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := lib.Elaborate("t")
	if err != nil {
		t.Fatal(err)
	}
	if nl.GateCount() != 1 {
		t.Errorf("gates %d", nl.GateCount())
	}
}

func int32g(i int) netlist.GateID { return netlist.GateID(i) }

// TestElaborateRefusesDoublingHierarchy elaborates 40 levels that each
// instantiate the level below twice, which would flatten to 2^40 gates. It
// must be refused with an error naming the limit, before anything is
// spliced.
func TestElaborateRefusesDoublingHierarchy(t *testing.T) {
	var src strings.Builder
	src.WriteString("module m0 (a, y); input a; output y; NOT g (y, a); endmodule\n")
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&src, "module m%d (a, y); input a; output y; wire t; m%d u0 (a, t); m%d u1 (t, y); endmodule\n", i, i-1, i-1)
	}
	lib, err := ParseHierarchy(nil, "deep.v", src.String())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = lib.Elaborate("m40")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxFlatSize)) {
		t.Fatalf("Elaborate = %v, want an error naming the limit %d", err, maxFlatSize)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 10<<20 {
		t.Errorf("refusal allocated %d bytes, want under 10 MB", alloc)
	}
}

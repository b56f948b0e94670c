package verilog

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gatewords/internal/netlist"
)

// FuzzParse hardens the frontend: arbitrary input must never panic,
// ParseLenient must build the same netlist as Parse on anything Parse
// accepts, and anything that parses must survive a write/re-parse round
// trip with every gate's name, kind, output and input names in pin order
// and the primary input and output sets intact.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"module m; endmodule",
		"module m (a, y);\n input a;\n output y;\n BUF b (y, a);\nendmodule",
		"module m (a);\n input [3:0] a;\nendmodule",
		"module m (input a, output y);\n not (y, a);\nendmodule",
		"module m (a, q);\n input a;\n output q;\n DFF r (.D(a), .Q(q), .CK(a));\nendmodule",
		"module m (a, y);\n input a;\n output y;\n assign y = 1'b0;\nendmodule",
		"module \\weird[1] (a);\n input a;\nendmodule",
		"module m (a); input a; wire w; /* unterminated",
		"module m (a); input a; NAND2 g (w, a, 4'hF); endmodule",
		"module m (a, y);\n input a;\n output y;\n supply1 vdd;\n AND2 g (y, a, vdd);\nendmodule",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		nl, err := Parse("fuzz.v", src)
		if err != nil {
			return
		}
		text, err := WriteString(nl)
		if err != nil {
			t.Fatalf("write after successful parse: %v", err)
		}
		back, err := Parse("fuzz2.v", text)
		if err != nil {
			t.Fatalf("round trip failed: %v\ninput: %q\nemitted:\n%s", err, src, text)
		}
		if back.GateCount() != nl.GateCount() || back.NetCount() != nl.NetCount() {
			t.Fatalf("round trip changed counts: %d/%d -> %d/%d",
				nl.GateCount(), nl.NetCount(), back.GateCount(), back.NetCount())
		}
		if got, want := gateLines(back), gateLines(nl); !slices.Equal(got, want) {
			t.Fatalf("round trip changed gates:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		for _, ports := range []func(*netlist.Netlist) []netlist.NetID{(*netlist.Netlist).PIs, (*netlist.Netlist).POs} {
			if got, want := sortedNames(back, ports(back)), sortedNames(nl, ports(nl)); !slices.Equal(got, want) {
				t.Fatalf("round trip changed ports: %v, want %v", got, want)
			}
		}
		lenient, err := ParseLenient("fuzz.v", src)
		if err != nil {
			t.Fatalf("ParseLenient rejected what Parse accepted: %v", err)
		}
		if !bytes.Equal(dumpNetlist(lenient), dumpNetlist(nl)) {
			t.Fatalf("ParseLenient and Parse build different netlists from %q", src)
		}
	})
}

// gateLines renders each gate, in file order, as its name, kind, output
// and input net names in pin order: what a round trip through Write must
// keep, since net IDs may be renumbered.
func gateLines(nl *netlist.Netlist) []string {
	out := make([]string, nl.GateCount())
	for i := range out {
		g := nl.Gate(netlist.GateID(i))
		names := make([]string, len(g.Inputs))
		for j, in := range g.Inputs {
			names[j] = nl.NetName(in)
		}
		out[i] = fmt.Sprintf("%q %s %q <- %q", g.Name, g.Kind, nl.NetName(g.Output), names)
	}
	return out
}

// sortedNames returns the names of ids, sorted.
func sortedNames(nl *netlist.Netlist, ids []netlist.NetID) []string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = nl.NetName(id)
	}
	slices.Sort(names)
	return names
}

// TestParsePinVariants covers the pin-name families of common libraries.
func TestParsePinVariants(t *testing.T) {
	src := `
module m (a, b, c, q);
  input a, b, c;
  output q;
  wire w1, w2, w3, w4, w5;
  NAND2 u1 (.Y(w1), .A1(a), .A2(b));
  OR3 u2 (.Z(w2), .IN1(a), .IN2(b), .IN3(c));
  INV u3 (.Y(w3), .I(w1));
  BUF u4 (.OUT(w4), .IN(w2));
  MUX2 u5 (.O(w5), .S0(c), .D0(w3), .D1(w4));
  FD1 r (.Q(q), .D(w5), .CP(a), .RN(b));
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if nl.GateCount() != 6 {
		t.Errorf("gates %d", nl.GateCount())
	}
}

func TestParseReaderAndFile(t *testing.T) {
	src := "module m (a);\n input a;\nendmodule\n"
	nl, err := ParseReader("m.v", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Name != "m" {
		t.Errorf("name %q", nl.Name)
	}
	if _, err := ParseFile("/nonexistent/never.v"); err == nil {
		t.Error("missing file accepted")
	}
}

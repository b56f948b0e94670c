package verilog

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

func TestParseClassicModule(t *testing.T) {
	src := `
// classic header with separate declarations
module top (a, b, clk, y);
  input a, b;
  input clk;
  output y;
  wire n1;
  NAND2 U1 (n1, a, b);
  DFF r (y, n1);
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Name != "top" {
		t.Errorf("name %q", nl.Name)
	}
	if len(nl.PIs()) != 3 || len(nl.POs()) != 1 {
		t.Errorf("ports: %d PIs %d POs", len(nl.PIs()), len(nl.POs()))
	}
	if nl.GateCount() != 2 {
		t.Errorf("gates %d", nl.GateCount())
	}
	id, _ := nl.NetByName("n1")
	g := nl.Gate(nl.Net(id).Driver)
	if g.Kind != logic.Nand || len(g.Inputs) != 2 {
		t.Errorf("U1 parsed as %s/%d", g.Kind, len(g.Inputs))
	}
}

func TestParseANSIHeader(t *testing.T) {
	src := `
module m (input a, input [1:0] b, output y);
  NAND3 g (y, a, b[0], b[1]);
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.PIs()) != 3 {
		t.Errorf("PIs = %d, want 3 (a, b[0], b[1])", len(nl.PIs()))
	}
	if _, ok := nl.NetByName("b[1]"); !ok {
		t.Error("bus bit b[1] missing")
	}
}

func TestParseVectorWire(t *testing.T) {
	src := `
module m (a, y);
  input a;
  output y;
  wire [2:0] v;
  NOT i0 (v[0], a);
  NOT i1 (v[1], v[0]);
  NOT i2 (v[2], v[1]);
  BUF b (y, v[2]);
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"v[0]", "v[1]", "v[2]"} {
		if _, ok := nl.NetByName(n); !ok {
			t.Errorf("net %s missing", n)
		}
	}
}

func TestParseNamedConnections(t *testing.T) {
	src := `
module m (a, b, s, clk, q);
  input a, b, s, clk;
  output q;
  wire y, z;
  MUX2 mx (.Y(y), .S(s), .A(a), .B(b));
  AOI21_X2 ao (.A(a), .B(b), .C(y), .Y(z));
  DFF r (.CK(clk), .D(z), .Q(q));
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := nl.NetByName("y")
	mx := nl.Gate(nl.Net(y).Driver)
	if mx.Kind != logic.Mux2 {
		t.Fatalf("mux kind %s", mx.Kind)
	}
	// Pin order [sel, a, b].
	if nl.NetName(mx.Inputs[0]) != "s" || nl.NetName(mx.Inputs[1]) != "a" || nl.NetName(mx.Inputs[2]) != "b" {
		t.Errorf("mux pins: %s %s %s", nl.NetName(mx.Inputs[0]), nl.NetName(mx.Inputs[1]), nl.NetName(mx.Inputs[2]))
	}
	z, _ := nl.NetByName("z")
	ao := nl.Gate(nl.Net(z).Driver)
	if ao.Kind != logic.Aoi21 || nl.NetName(ao.Inputs[2]) != "y" {
		t.Errorf("aoi parsed wrong: %s %v", ao.Kind, ao.Inputs)
	}
	q, _ := nl.NetByName("q")
	ff := nl.Gate(nl.Net(q).Driver)
	if ff.Kind != logic.DFF || len(ff.Inputs) != 1 || nl.NetName(ff.Inputs[0]) != "z" {
		t.Errorf("dff parsed wrong: %s %v", ff.Kind, ff.Inputs)
	}
}

func TestParsePrimitives(t *testing.T) {
	src := `
module m (a, b, y);
  input a, b;
  output y;
  wire n1, n2;
  nand (n1, a, b);
  nor g2 (n2, n1, a);
  xor (y, n2, b);
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if nl.GateCount() != 3 {
		t.Errorf("gates %d", nl.GateCount())
	}
}

func TestParseAssignAndConstants(t *testing.T) {
	src := `
module m (a, y, z);
  input a;
  output y, z;
  assign y = a;
  AND2 g (z, a, 1'b1);
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := nl.NetByName("y")
	if nl.Gate(nl.Net(y).Driver).Kind != logic.Buf {
		t.Error("assign must become BUF")
	}
	if _, ok := nl.NetByName("$const1"); !ok {
		t.Error("constant tie net missing")
	}
}

func TestParseSupply(t *testing.T) {
	src := `
module m (a, y);
  input a;
  output y;
  supply1 vdd;
  AND2 g (y, a, vdd);
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	vdd, ok := nl.NetByName("vdd")
	if !ok || nl.Net(vdd).Driver == -1 {
		t.Error("supply net must be driven")
	}
}

func TestParseEscapedNames(t *testing.T) {
	src := "module m (a, \\q[0] );\n  input a;\n  output \\q[0] ;\n  DFF \\r_reg[0] (\\q[0] , a);\nendmodule\n"
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nl.NetByName("q[0]"); !ok {
		t.Error("escaped port name lost")
	}
}

// parseErrorCases are inputs Parse must reject, each with a fragment its
// error must contain. TestParseGoldens pins their full error texts.
var parseErrorCases = []struct {
	name string
	src  string
	frag string
}{
	{"missing module", "wire x;", "expected 'module'"},
	{"undeclared port dir", "module m (p);\nendmodule", "no direction"},
	{"unknown cell", "module m (a);\n input a;\n wire y;\n BOGUS77 u (y, a);\nendmodule", "unknown cell"},
	{"unknown pin", "module m (a);\n input a;\n wire y;\n NAND2 u (.Y(y), .QQ(a), .B(a));\nendmodule", "unknown pin"},
	{"double driver", "module m (a);\n input a;\n wire y;\n NOT u1 (y, a);\n NOT u2 (y, a);\nendmodule", "already driven"},
	{"bad arity", "module m (a);\n input a;\n wire y;\n MUX2 u (y, a, a);\nendmodule", "MUX2 with 2 inputs"},
	{"vector as scalar", "module m (a);\n input a;\n wire [1:0] v;\n NOT u (v, a);\nendmodule", "without a bit-select"},
	{"missing input pin", "module m (a);\n input a;\n wire y;\n NAND2 u (.Y(y), .B(a));\nendmodule", "unconnected"},
	{"eof", "module m (a);\n input a;\n", "unexpected end of file"},
	{"bad constant", "module m (a);\n input a;\n wire y;\n AND2 u (y, a, 4'hF);\nendmodule", "unsupported constant"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse("t.v", c.src)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestParseFloatingNetRejected(t *testing.T) {
	src := `
module m (a, y);
  input a;
  output y;
  wire ghost;
  BUF b (y, a);
endmodule
`
	if _, err := Parse("t.v", src); err == nil {
		t.Error("netlist with undriven non-PI wire accepted")
	}
}

func TestParseGateOrderPreserved(t *testing.T) {
	src := `
module m (a);
  input a;
  wire n1, n2, n3;
  NOT u3 (n3, a);
  NOT u1 (n1, a);
  NOT u2 (n2, a);
endmodule
`
	nl, err := Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"u3", "u1", "u2"}
	for i, w := range want {
		if nl.Gate(int32ToGateID(i)).Name != w {
			t.Fatalf("gate order not preserved")
		}
	}
}

// TestParseRangeBounds: a vector bound or bit-select past MaxInt32 is a
// syntax error at its range, and so is a module whose vector ranges declare
// more than maxVectorBits bits in total. Each rejection happens before any
// bit of the offending range is declared, so the 2^31-bit case is cheap.
func TestParseRangeBounds(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"overflowing msb", "module m (a);\n input [99999999999999999999:0] a;\nendmodule",
			"t.v:2:8: vector bound 99999999999999999999 out of range"},
		{"overflowing lsb", "module m (a);\n input [0:99999999999999999999] a;\nendmodule",
			"t.v:2:8: vector bound 99999999999999999999 out of range"},
		{"bound past MaxInt32", "module m (a);\n wire [2147483648:0] a;\nendmodule",
			"t.v:2:7: vector bound 2147483648 out of range"},
		{"2^31 bits", "module m (a); input [2147483647:0] a; endmodule",
			fmt.Sprintf("t.v:1:21: vector \"a\" [2147483647:0] declares 2147483648 bits, past the limit of %d vector bits per module", maxVectorBits)},
		{"ANSI header", "module m (input [0:2147483647] a); endmodule",
			fmt.Sprintf("t.v:1:17: vector \"a\" [0:2147483647] declares 2147483648 bits, past the limit of %d vector bits per module", maxVectorBits)},
		{"one past the cap", fmt.Sprintf("module m (a); input [%d:0] a; endmodule", maxVectorBits),
			fmt.Sprintf("t.v:1:21: vector \"a\" [%d:0] declares %d bits, past the limit of %d vector bits per module", maxVectorBits, maxVectorBits+1, maxVectorBits)},
		{"cap summed over declarations", fmt.Sprintf("module m (a);\n input [3:0] a;\n wire [%d:0] w;\nendmodule", maxVectorBits-4),
			fmt.Sprintf("t.v:3:7: vector \"w\" [%d:0] declares %d bits, past the limit of %d vector bits per module", maxVectorBits-4, maxVectorBits-3, maxVectorBits)},
		{"bit-select past MaxInt32", "module m (a, y);\n input a;\n output y;\n BUF b (y, a[99999999999]);\nendmodule",
			"t.v:4:14: bit-select 99999999999 out of range"},
	}
	for _, c := range cases {
		for _, parse := range []func(string, string) (*netlist.Netlist, error){Parse, ParseLenient} {
			_, err := parse("t.v", c.src)
			var se *SyntaxError
			if !errors.As(err, &se) || err.Error() != c.want {
				t.Errorf("%s: error %v, want SyntaxError %q", c.name, err, c.want)
			}
		}
	}

	const width = 4096
	src := fmt.Sprintf("module m (a, y);\n input [%d:0] a;\n output y;\n wire [0:%d] w;\n BUF b (y, a[%d]);\n BUF c (w[0], a[0]);\nendmodule", width-1, width-1, width-1)
	if _, err := Parse("t.v", src); err == nil {
		t.Fatal("undriven wire bits accepted")
	}
	nl, err := ParseLenient("t.v", src)
	if err != nil {
		t.Fatalf("legal wide bus rejected: %v", err)
	}
	if got := nl.NetCount(); got != 2*width+1 {
		t.Errorf("nets = %d, want %d", got, 2*width+1)
	}
	if len(nl.PIs()) != width {
		t.Errorf("PIs = %d, want %d", len(nl.PIs()), width)
	}
	for _, name := range []string{"a[0]", fmt.Sprintf("a[%d]", width-1), "w[0]", fmt.Sprintf("w[%d]", width-1)} {
		if _, ok := nl.NetByName(name); !ok {
			t.Errorf("bit %s missing", name)
		}
	}
}

// TestParseNameDoesNotAliasSource: net and gate names are substrings of the
// source, but the module name is copied out of it, so a holder of just the
// name does not keep the whole source alive.
func TestParseNameDoesNotAliasSource(t *testing.T) {
	src := "module top (a, y);\n input a;\n output y;\n NOT g (y, a);\nendmodule\n"
	within := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		start := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		return len(s) > 0 && p >= start && p < start+uintptr(len(src))
	}
	for _, parse := range []func(string, string) (*netlist.Netlist, error){Parse, ParseLenient} {
		nl, err := parse("t.v", src)
		if err != nil {
			t.Fatal(err)
		}
		if nl.Name != "top" || within(nl.Name) {
			t.Errorf("module name %q points into the source", nl.Name)
		}
		// The check above can see aliasing: net names do alias the source.
		if y, _ := nl.NetByName("y"); !within(nl.NetName(y)) {
			t.Errorf("net name %q was copied out of the source", nl.NetName(y))
		}
	}
}

// TestParseSizeHintBounded: the parser reserves netlist storage from counts
// of ';' and ");" before it checks the source, so a source made of them
// must not reserve much more than 12 bytes per source byte, nor much more
// than 24 MB however long it is. Both sources are rejected at their first
// ')'. With only the other cap, the two would reserve about 12 MB and
// 97 MB; with neither, the second would reserve 777 MB.
func TestParseSizeHintBounded(t *testing.T) {
	for _, c := range []struct {
		reps  int
		limit uint64
	}{
		{1 << 16, 16 * (2 << 16)}, // 128 KB: bounded by its length
		{1 << 22, 32 << 20},       // 8 MB: bounded by maxSizeHint
	} {
		src := "module m (a);\n" + strings.Repeat(");", c.reps)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse("t.v", src)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d bytes of \");\" accepted", len(src))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > c.limit {
			t.Errorf("%d bytes of \");\" allocated %d bytes, want at most %d", len(src), got, c.limit)
		} else {
			t.Logf("%d bytes of \");\" allocated %d bytes", len(src), got)
		}
	}
}

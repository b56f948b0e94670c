package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"gatewords/internal/netlist"
)

// Write emits nl as structural Verilog in the canonical form this package
// parses back: scalar ports, wire declarations, then one cell instance per
// line in gate order (output pin first, positional connections). Round-trip
// through Parse reproduces the netlist, including gate order.
func Write(w io.Writer, nl *netlist.Netlist) error {
	bw := bufio.NewWriter(w)

	pis, pos := nl.PIs(), nl.POs()
	var ports []string
	for _, id := range pis {
		ports = append(ports, escapeName(nl.NetName(id)))
	}
	for _, id := range pos {
		if !nl.Net(id).IsPI {
			ports = append(ports, escapeName(nl.NetName(id)))
		}
	}
	fmt.Fprintf(bw, "module %s (%s);\n", escapeName(nl.Name), strings.Join(ports, ", "))
	for _, id := range pis {
		fmt.Fprintf(bw, "  input %s;\n", escapeName(nl.NetName(id)))
	}
	for _, id := range pos {
		if !nl.Net(id).IsPI {
			fmt.Fprintf(bw, "  output %s;\n", escapeName(nl.NetName(id)))
		}
	}
	for ni := 0; ni < nl.NetCount(); ni++ {
		id := netlist.NetID(ni)
		n := nl.Net(id)
		if n.IsPI || n.IsPO {
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", escapeName(n.Name))
	}
	bw.WriteByte('\n')
	for gi := 0; gi < nl.GateCount(); gi++ {
		g := nl.Gate(netlist.GateID(gi))
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("U%d", gi)
		}
		pins := make([]string, 0, len(g.Inputs)+1)
		pins = append(pins, escapeName(nl.NetName(g.Output)))
		for _, in := range g.Inputs {
			pins = append(pins, escapeName(nl.NetName(in)))
		}
		fmt.Fprintf(bw, "  %s %s (%s);\n", CellName(g.Kind, len(g.Inputs)), escapeName(name), strings.Join(pins, ", "))
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// WriteString renders nl to a string; convenient for tests and examples.
func WriteString(nl *netlist.Netlist) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, nl); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// escapeName emits a Verilog-safe identifier: plain when the name is a
// simple identifier, otherwise an escaped identifier (backslash prefix,
// trailing space required by the language).
func escapeName(name string) string {
	if isSimpleIdent(name) {
		return name
	}
	return "\\" + name + " "
}

func isSimpleIdent(name string) bool {
	if name == "" {
		return false
	}
	c := name[0]
	if !(c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c == '$' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return false
		}
	}
	// Avoid colliding with keywords and primitive gate names the parser
	// treats specially.
	switch name {
	case "module", "endmodule", "input", "output", "inout", "wire", "tri",
		"assign", "supply0", "supply1", "reg",
		"and", "or", "nand", "nor", "xor", "xnor", "not", "buf":
		return false
	}
	return true
}

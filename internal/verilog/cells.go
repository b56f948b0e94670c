package verilog

import (
	"strings"

	"gatewords/internal/logic"
)

// CellKind resolves a library cell name to a logic.Kind. It accepts the
// canonical names this package writes (NAND3, MUX2, DFF, ...) plus the
// common naming families found in synthesized netlists: an upper-case base
// name optionally followed by an arity and/or a drive-strength suffix such
// as "X1" or "_X2" (NAND2X1, AOI21_X2, INVX4, FD1, ...). It returns
// (Invalid, false) for names it does not recognize.
func CellKind(cell string) (logic.Kind, bool) {
	name := strings.ToUpper(cell)
	if k, ok := cellBase(name); ok {
		return k, true
	}
	// Retry with a drive-strength suffix stripped: X<d> or _X<d> at the end.
	if i := strings.LastIndex(name, "_X"); i > 0 && allDigits(name[i+2:]) {
		return cellBase(name[:i])
	}
	if i := strings.LastIndex(name, "X"); i > 0 && allDigits(name[i+1:]) {
		return cellBase(name[:i])
	}
	return logic.Invalid, false
}

func cellBase(name string) (logic.Kind, bool) {
	i := len(name)
	for i > 0 && isDigit(name[i-1]) {
		i--
	}
	switch base := name[:i]; base {
	case "AND":
		return logic.And, true
	case "OR":
		return logic.Or, true
	case "NAND", "ND":
		return logic.Nand, true
	case "NOR", "NR":
		return logic.Nor, true
	case "XOR", "EO":
		return logic.Xor, true
	case "XNOR", "EN":
		return logic.Xnor, true
	case "NOT", "INV", "IV":
		return logic.Not, true
	case "BUF", "BUFF", "B":
		return logic.Buf, true
	case "MUX", "MX":
		return logic.Mux2, true
	case "AOI":
		if strings.HasSuffix(name, "21") {
			return logic.Aoi21, true
		}
		return logic.Invalid, false
	case "OAI":
		if strings.HasSuffix(name, "21") {
			return logic.Oai21, true
		}
		return logic.Invalid, false
	case "DFF", "FD", "SDFF", "DFFR", "DFFS":
		return logic.DFF, true
	}
	return logic.Invalid, false
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// CellName returns the canonical cell name emitted by the writer for a gate
// of the given kind and input count: variadic kinds carry their arity
// (NAND3), fixed-pin kinds use their bare name.
func CellName(k logic.Kind, arity int) string {
	switch k {
	case logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor:
		return k.String() + itoa(arity)
	case logic.Not:
		return "NOT"
	case logic.Buf:
		return "BUF"
	case logic.Mux2:
		return "MUX2"
	case logic.Aoi21:
		return "AOI21"
	case logic.Oai21:
		return "OAI21"
	case logic.DFF:
		return "DFF"
	}
	return "UNKNOWN"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// primitiveKind resolves a Verilog gate primitive keyword (lower case) used
// in "nand g1 (y, a, b);" statements.
func primitiveKind(word string) (logic.Kind, bool) {
	switch word {
	case "and":
		return logic.And, true
	case "or":
		return logic.Or, true
	case "nand":
		return logic.Nand, true
	case "nor":
		return logic.Nor, true
	case "xor":
		return logic.Xor, true
	case "xnor":
		return logic.Xnor, true
	case "not":
		return logic.Not, true
	case "buf":
		return logic.Buf, true
	}
	return logic.Invalid, false
}

// pinRole classifies a named connection pin for a cell of the given kind.
// It returns the input slot index, or -1 for the output pin, or -2 for pins
// that are ignored (clock, asynchronous set/reset, scan enables, ...).
// Kind-specific data pins are matched first so that, for example, "C" is the
// third input of an AOI21 but an ignored clock pin on a DFF.
func pinRole(kind logic.Kind, pin string) (slot int, ok bool) {
	p := strings.ToUpper(pin)
	switch kind {
	case logic.DFF:
		switch p {
		case "D":
			return 0, true
		case "Q":
			return -1, true
		}
	case logic.Mux2:
		switch p {
		case "S", "S0", "SEL":
			return 0, true
		case "A", "A0", "D0", "I0":
			return 1, true
		case "B", "A1", "D1", "I1":
			return 2, true
		}
	case logic.Aoi21, logic.Oai21:
		switch p {
		case "A", "A1":
			return 0, true
		case "B", "A2":
			return 1, true
		case "C", "B1":
			return 2, true
		}
	case logic.Not, logic.Buf:
		switch p {
		case "A", "I", "IN":
			return 0, true
		}
	default:
		// Variadic gates: A..H or A1..A9 / IN1..IN9.
		if len(p) == 1 && p[0] >= 'A' && p[0] <= 'H' {
			return int(p[0] - 'A'), true
		}
		if len(p) == 2 && p[0] == 'A' && p[1] >= '1' && p[1] <= '9' {
			return int(p[1] - '1'), true
		}
		if strings.HasPrefix(p, "IN") && allDigits(p[2:]) {
			return int(p[2]-'0') - 1, true
		}
	}
	switch p {
	case "Y", "Z", "OUT", "O", "Q":
		return -1, true
	case "QN", "CLK", "CK", "C", "CP", "CLOCK", "R", "RN", "S", "SN", "RST", "RESET", "SET", "SE", "SI", "TE", "TI":
		return -2, true
	}
	return 0, false
}

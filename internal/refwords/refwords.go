// Package refwords builds the golden reference words used to evaluate word
// identification, following the methodology of DAC'15 §3: synthesis
// preserves RTL register names on flip-flop output nets ("count_reg[3]",
// "count_reg_3_", ...), so grouping flip-flops by register base name yields
// verified words. Because word identification matches fanin-cone structure,
// a reference word consists of the D *input* nets of the register's
// flip-flops, not the named output nets.
package refwords

import (
	"sort"
	"strconv"
	"strings"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Word is one golden reference word.
type Word struct {
	Name    string          // register base name, e.g. "count_reg"
	Bits    []netlist.NetID // D-input nets, ordered by bit index
	Indices []int           // bit indices parallel to Bits
}

// Size returns the word width in bits.
func (w Word) Size() int { return len(w.Bits) }

// minBits is the minimum register width that counts as a word: single-bit
// registers are flags, not words.
const minBits = 2

// Extract scans the flip-flops of nl and groups them into reference words by
// the register base name and bit index parsed from each FF's output net
// name. Flip-flops whose names carry no bit index, and registers narrower
// than minBits, are excluded. Words are returned sorted by name.
func Extract(nl *netlist.Netlist) []Word {
	type bit struct {
		idx int
		d   netlist.NetID
	}
	groups := make(map[string][]bit)
	for _, g := range nl.DFFs() {
		gate := nl.Gate(g)
		base, idx, ok := SplitRegisterName(nl.NetName(gate.Output))
		if !ok {
			continue
		}
		if gate.Kind != logic.DFF || len(gate.Inputs) == 0 {
			continue
		}
		groups[base] = append(groups[base], bit{idx: idx, d: gate.Inputs[0]})
	}
	words := make([]Word, 0, len(groups))
	for base, bits := range groups {
		sort.Slice(bits, func(i, j int) bool { return bits[i].idx < bits[j].idx })
		// Drop duplicate indices deterministically (first wins); they
		// indicate a malformed netlist but should not crash evaluation.
		w := Word{Name: base}
		for i, b := range bits {
			if i > 0 && b.idx == bits[i-1].idx {
				continue
			}
			w.Bits = append(w.Bits, b.d)
			w.Indices = append(w.Indices, b.idx)
		}
		if w.Size() >= minBits {
			words = append(words, w)
		}
	}
	sort.Slice(words, func(i, j int) bool { return words[i].Name < words[j].Name })
	return words
}

// SplitRegisterName parses a flip-flop output net name into a register base
// name and bit index. Recognized forms, in priority order:
//
//	base[3]    (bracketed bit-select, possibly from an escaped identifier)
//	base_3_    (Synopsys-style flattened name)
//	base(3)    (parenthesized VHDL-style)
//
// A plain trailing "_3" is deliberately NOT treated as a bit index: it is
// indistinguishable from a register named "foo_3".
func SplitRegisterName(name string) (base string, idx int, ok bool) {
	if n := len(name); n >= 3 && name[n-1] == ']' {
		if open := strings.LastIndexByte(name, '['); open > 0 {
			if v, err := strconv.Atoi(name[open+1 : n-1]); err == nil && v >= 0 {
				return name[:open], v, true
			}
		}
	}
	if n := len(name); n >= 3 && name[n-1] == ')' {
		if open := strings.LastIndexByte(name, '('); open > 0 {
			if v, err := strconv.Atoi(name[open+1 : n-1]); err == nil && v >= 0 {
				return name[:open], v, true
			}
		}
	}
	if n := len(name); n >= 3 && name[n-1] == '_' {
		body := name[:n-1]
		if us := strings.LastIndexByte(body, '_'); us > 0 {
			if v, err := strconv.Atoi(body[us+1:]); err == nil && v >= 0 {
				return name[:us], v, true
			}
		}
	}
	return "", 0, false
}

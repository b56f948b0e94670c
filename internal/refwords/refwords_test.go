package refwords

import (
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

func TestSplitRegisterName(t *testing.T) {
	cases := []struct {
		in   string
		base string
		idx  int
		ok   bool
	}{
		{"count_reg[3]", "count_reg", 3, true},
		{"count_reg_3_", "count_reg", 3, true},
		{"count_reg(12)", "count_reg", 12, true},
		{"state_reg[0]", "state_reg", 0, true},
		{"a[10]", "a", 10, true},
		{"plain", "", 0, false},
		{"foo_3", "", 0, false}, // ambiguous: register named foo_3
		{"foo_reg[-1]", "", 0, false},
		{"foo_reg[x]", "", 0, false},
		{"_3_", "", 0, false},
		{"x_12_", "x", 12, true},
		{"[3]", "", 0, false},
	}
	for _, c := range cases {
		base, idx, ok := SplitRegisterName(c.in)
		if base != c.base || idx != c.idx || ok != c.ok {
			t.Errorf("SplitRegisterName(%q) = %q,%d,%v want %q,%d,%v",
				c.in, base, idx, ok, c.base, c.idx, c.ok)
		}
	}
}

// regNet builds a netlist with flip-flops named per names; each FF's D net
// is "d<i>".
func regNet(t *testing.T, names ...string) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("t")
	src := nl.MustNet("src")
	nl.MarkPI(src)
	for i, name := range names {
		d := nl.MustNet("d" + string(rune('0'+i)))
		nl.MustGate("inv"+string(rune('0'+i)), logic.Not, d, src)
		q := nl.MustNet(name)
		nl.MustGate(name+"_g", logic.DFF, q, d)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestExtractGroupsAndOrders(t *testing.T) {
	// Deliberately out of order and mixed formats.
	nl := regNet(t, "cnt_reg[2]", "cnt_reg[0]", "cnt_reg[1]", "st_reg_1_", "st_reg_0_", "flag")
	words := Extract(nl)
	if len(words) != 2 {
		t.Fatalf("words = %d: %+v", len(words), words)
	}
	if words[0].Name != "cnt_reg" || words[1].Name != "st_reg" {
		t.Errorf("names: %q %q", words[0].Name, words[1].Name)
	}
	// Bits ordered by index; bit i of cnt is FF with name cnt_reg[i] whose
	// D net is d<position in names>.
	cnt := words[0]
	if cnt.Size() != 3 || cnt.Indices[0] != 0 || cnt.Indices[2] != 2 {
		t.Fatalf("cnt word: %+v", cnt)
	}
	if nl.NetName(cnt.Bits[0]) != "d1" || nl.NetName(cnt.Bits[2]) != "d0" {
		t.Errorf("bit order: %s %s %s",
			nl.NetName(cnt.Bits[0]), nl.NetName(cnt.Bits[1]), nl.NetName(cnt.Bits[2]))
	}
}

// TestExtractMinBits checks that a single-bit register is a flag, not a
// word, and that two bits make one.
func TestExtractMinBits(t *testing.T) {
	nl := regNet(t, "w_reg[0]", "w_reg[1]", "lone_reg[0]")
	if words := Extract(nl); len(words) != 1 || words[0].Name != "w_reg" {
		t.Errorf("words %+v, want w_reg alone", words)
	}
}

func TestExtractDuplicateIndex(t *testing.T) {
	// Two FFs claiming w_reg[1]: first wins, no crash, width stays 2.
	nl := netlist.New("t")
	src := nl.MustNet("src")
	nl.MarkPI(src)
	mk := func(i int, q string) {
		d := nl.MustNet("d" + string(rune('0'+i)))
		nl.MustGate("g"+string(rune('0'+i)), logic.Not, d, src)
		qn := nl.MustNet(q)
		nl.MustGate(q+"_ff", logic.DFF, qn, d)
	}
	mk(0, "w_reg[0]")
	mk(1, "w_reg[1]")
	mk(2, "w_reg[1]x") // unrelated: no index pattern... actually has none
	// A true duplicate requires a distinct net name mapping to the same
	// base+index; use the underscore format.
	mk(3, "w_reg_1_")
	words := Extract(nl)
	if len(words) != 1 || words[0].Size() != 2 {
		t.Fatalf("words: %+v", words)
	}
}

func TestExtractUsesDInputs(t *testing.T) {
	nl := regNet(t, "r_reg[0]", "r_reg[1]")
	words := Extract(nl)
	if len(words) != 1 {
		t.Fatal("missing word")
	}
	for _, b := range words[0].Bits {
		name := nl.NetName(b)
		if name == "r_reg[0]" || name == "r_reg[1]" {
			t.Error("reference word must hold D-input nets, not Q outputs")
		}
	}
}

package propagate

import (
	"strconv"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/rtl"
	"gatewords/internal/synth"
)

// derived returns the non-seed words of r.
func derived(r *Result) []Word {
	var out []Word
	for _, w := range r.Words {
		if w.Dir != Seed {
			out = append(out, w)
		}
	}
	return out
}

// datapath synthesizes: r = sel ? (a ^ b) : r, observing that backward
// propagation from the register's D word should recover the XOR word and
// then the a/b primary-input buses.
func datapath(t *testing.T) (*netlist.Netlist, []netlist.NetID) {
	t.Helper()
	d := &rtl.Design{
		Name: "dp",
		Inputs: []rtl.Signal{
			{Name: "a", Width: 4}, {Name: "b", Width: 4}, {Name: "sel", Width: 1},
		},
		Regs: []*rtl.Reg{
			{Name: "r", Width: 4, Next: rtl.Mux{
				Sel: rtl.Ref{Name: "sel"},
				A:   rtl.Ref{Name: "r"},
				B:   rtl.Bin{Kind: logic.Xor, A: rtl.Ref{Name: "a"}, B: rtl.Ref{Name: "b"}},
			}},
		},
		Outputs: []rtl.Output{{Name: "o", Expr: rtl.RedOr{A: rtl.Ref{Name: "r"}}}},
	}
	res, err := synth.Synthesize(d, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.NL, res.RegRoots["r"]
}

func hasWord(t *testing.T, nl *netlist.Netlist, res *Result, names []string) bool {
	t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, w := range res.Words {
		if len(w.Bits) != len(names) {
			continue
		}
		all := true
		for _, b := range w.Bits {
			if !want[nl.NetName(b)] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func TestBackwardRecoversOperandBuses(t *testing.T) {
	nl, seed := datapath(t)
	res := Expand(nl, [][]netlist.NetID{seed}, Options{})
	if !hasWord(t, nl, res, []string{"a[0]", "a[1]", "a[2]", "a[3]"}) {
		t.Errorf("input bus a not recovered; words: %d", len(res.Words))
	}
	if !hasWord(t, nl, res, []string{"b[0]", "b[1]", "b[2]", "b[3]"}) {
		t.Errorf("input bus b not recovered")
	}
	if !hasWord(t, nl, res, []string{"r_reg[0]", "r_reg[1]", "r_reg[2]", "r_reg[3]"}) {
		t.Errorf("register output word not recovered (backward through the mux A pin)")
	}
	// Provenance: derived words must reference a valid parent.
	for _, w := range derived(res) {
		if w.From < 0 || w.From >= len(res.Words) {
			t.Errorf("bad provenance: %+v", w)
		}
		if w.Round < 1 {
			t.Errorf("derived word with round %d", w.Round)
		}
	}
}

func TestForwardThroughGateColumn(t *testing.T) {
	// word -> column of NOT gates -> derived word of the outputs.
	nl := netlist.New("t")
	var seed, outs []netlist.NetID
	for i := 0; i < 3; i++ {
		sfx := string(rune('0' + i))
		a := nl.MustNet("a" + sfx)
		nl.MarkPI(a)
		seed = append(seed, a)
	}
	for i, a := range seed {
		o := nl.MustNet("o" + string(rune('0'+i)))
		nl.MustGate("g"+string(rune('0'+i)), logic.Not, o, a)
		outs = append(outs, o)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Expand(nl, [][]netlist.NetID{seed}, Options{})
	if !hasWord(t, nl, res, []string{"o0", "o1", "o2"}) {
		t.Errorf("forward column not derived: %+v", res.Words)
	}
	forward := false
	for _, w := range derived(res) {
		if w.Dir == Forward {
			forward = true
		}
	}
	if !forward {
		t.Error("no forward-derived word")
	}
}

func TestBackwardSkipsSharedSelect(t *testing.T) {
	// Bits driven by NAND(a_i, sel): pin 0 gives the a word; pin 1 is the
	// shared select and must not become a "word".
	nl := netlist.New("t")
	sel := nl.MustNet("sel")
	nl.MarkPI(sel)
	var seed []netlist.NetID
	for i := 0; i < 3; i++ {
		sfx := string(rune('0' + i))
		a := nl.MustNet("a" + sfx)
		nl.MarkPI(a)
		y := nl.MustNet("y" + sfx)
		nl.MustGate("g"+sfx, logic.Nand, y, a, sel)
		seed = append(seed, y)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Expand(nl, [][]netlist.NetID{seed}, Options{})
	if !hasWord(t, nl, res, []string{"a0", "a1", "a2"}) {
		t.Error("operand word not derived")
	}
	for _, w := range derived(res) {
		for _, b := range w.Bits {
			if nl.NetName(b) == "sel" {
				t.Error("shared select leaked into a derived word")
			}
		}
	}
}

func TestMixedDriverKindsStopBackward(t *testing.T) {
	nl := netlist.New("t")
	a := nl.MustNet("a")
	b := nl.MustNet("b")
	nl.MarkPI(a)
	nl.MarkPI(b)
	x := nl.MustNet("x")
	y := nl.MustNet("y")
	nl.MustGate("g1", logic.Not, x, a)
	nl.MustGate("g2", logic.Buf, y, b)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Expand(nl, [][]netlist.NetID{{x, y}}, Options{})
	if len(derived(res)) != 0 {
		t.Errorf("mixed driver kinds must not derive words: %+v", derived(res))
	}
}

func TestDedupAndRounds(t *testing.T) {
	nl, seed := datapath(t)
	res := Expand(nl, [][]netlist.NetID{seed, seed}, Options{})
	// Duplicate seeds collapse.
	n := 0
	for _, w := range res.Words {
		if w.Dir == Seed {
			n++
		}
	}
	if n != 1 {
		t.Errorf("duplicate seed not collapsed: %d", n)
	}
	limited := Expand(nl, [][]netlist.NetID{seed}, Options{MaxRounds: 1})
	if len(limited.Words) > len(res.Words) {
		t.Error("round limit increased words")
	}
	if limited.Rounds != 1 {
		t.Errorf("rounds = %d", limited.Rounds)
	}
}

// TestMaxWordsGuard propagates a 2-bit seed down a buffer chain longer than
// maxWords, one new word per round, and requires the guard, not the
// chain's end, to stop it.
func TestMaxWordsGuard(t *testing.T) {
	nl := netlist.New("chain")
	prev := []netlist.NetID{nl.MustNet("a0"), nl.MustNet("a1")}
	seed := prev
	for i := 1; i <= maxWords+8; i++ {
		next := make([]netlist.NetID, len(prev))
		for b, in := range prev {
			sfx := strconv.Itoa(i) + "_" + strconv.Itoa(b)
			next[b] = nl.MustNet("n" + sfx)
			nl.MustGate("g"+sfx, logic.Buf, next[b], in)
		}
		prev = next
	}
	res := Expand(nl, [][]netlist.NetID{seed}, Options{MaxRounds: 2 * maxWords})
	if len(res.Words) != maxWords {
		t.Errorf("%d words after %d rounds, want the guard's %d", len(res.Words), res.Rounds, maxWords)
	}
}

func TestDirectionString(t *testing.T) {
	if Seed.String() != "seed" || Forward.String() != "forward" || Backward.String() != "backward" {
		t.Error("direction strings")
	}
}

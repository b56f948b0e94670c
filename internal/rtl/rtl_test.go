package rtl

import (
	"strings"
	"testing"

	"gatewords/internal/logic"
)

func vals(bits ...int) []logic.Value {
	out := make([]logic.Value, len(bits))
	for i, b := range bits {
		switch b {
		case 0:
			out[i] = logic.Zero
		case 1:
			out[i] = logic.One
		default:
			out[i] = logic.X
		}
	}
	return out
}

func toUint(t *testing.T, v []logic.Value) uint64 {
	t.Helper()
	var out uint64
	for i, b := range v {
		switch b {
		case logic.One:
			out |= 1 << uint(i)
		case logic.X:
			t.Fatalf("unexpected X at bit %d", i)
		}
	}
	return out
}

func TestValidateGood(t *testing.T) {
	d := &Design{
		Name:   "ok",
		Inputs: []Signal{{Name: "a", Width: 4}, {Name: "en", Width: 1}},
		Wires: []Wire{
			{Name: "na", Width: 4, Expr: Not{A: Ref{Name: "a"}}},
			{Name: "lo", Width: 1, Bits: []BitExpr{B(logic.And, Bit("en", 0), Bit("na", 0))}},
		},
		Regs: []*Reg{
			{Name: "r", Width: 4, Next: Mux{Sel: Ref{Name: "en"}, A: Ref{Name: "r"}, B: Ref{Name: "na"}}},
			{Name: "c", Width: 3, Next: Inc{A: Ref{Name: "c"}}},
		},
		Outputs: []Output{{Name: "o", Expr: RedOr{A: Ref{Name: "r"}}}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		d    *Design
		frag string
	}{
		{
			"dup name",
			&Design{Name: "d", Inputs: []Signal{{Name: "a", Width: 1}, {Name: "a", Width: 2}}},
			"duplicate",
		},
		{
			"width mismatch",
			&Design{Name: "d", Inputs: []Signal{{Name: "a", Width: 2}, {Name: "b", Width: 3}},
				Regs: []*Reg{{Name: "r", Width: 2, Next: Bin{Kind: logic.And, A: Ref{Name: "a"}, B: Ref{Name: "b"}}}}},
			"width mismatch",
		},
		{
			"bad mux select",
			&Design{Name: "d", Inputs: []Signal{{Name: "a", Width: 2}},
				Regs: []*Reg{{Name: "r", Width: 2, Next: Mux{Sel: Ref{Name: "a"}, A: Ref{Name: "a"}, B: Ref{Name: "a"}}}}},
			"select must be 1 bit",
		},
		{
			"reg width mismatch",
			&Design{Name: "d", Inputs: []Signal{{Name: "a", Width: 3}},
				Regs: []*Reg{{Name: "r", Width: 2, Next: Ref{Name: "a"}}}},
			"next-state is 3 bits",
		},
		{
			"undefined ref",
			&Design{Name: "d", Regs: []*Reg{{Name: "r", Width: 1, Next: Ref{Name: "ghost"}}}},
			"undefined signal",
		},
		{
			"no next",
			&Design{Name: "d", Regs: []*Reg{{Name: "r", Width: 1}}},
			"no next-state",
		},
		{
			"both next forms",
			&Design{Name: "d", Inputs: []Signal{{Name: "a", Width: 1}},
				Regs: []*Reg{{Name: "r", Width: 1, Next: Ref{Name: "a"}, NextBits: []BitExpr{Bit("a", 0)}}}},
			"both Next and NextBits",
		},
		{
			"bit out of range",
			&Design{Name: "d", Inputs: []Signal{{Name: "a", Width: 2}},
				Regs: []*Reg{{Name: "r", Width: 1, NextBits: []BitExpr{Bit("a", 5)}}}},
			"out of range",
		},
		{
			"wire uses later wire",
			&Design{Name: "d", Inputs: []Signal{{Name: "a", Width: 1}},
				Wires: []Wire{
					{Name: "w1", Width: 1, Expr: Ref{Name: "w2"}},
					{Name: "w2", Width: 1, Expr: Ref{Name: "a"}},
				}},
			"undefined signal",
		},
		{
			"bad bop arity",
			&Design{Name: "d", Inputs: []Signal{{Name: "a", Width: 1}},
				Regs: []*Reg{{Name: "r", Width: 1, NextBits: []BitExpr{B(logic.Mux2, Bit("a", 0))}}}},
			"MUX2 with 1",
		},
	}
	for _, c := range cases {
		err := c.d.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.frag)
		}
	}
}

func TestEvalStepAdder(t *testing.T) {
	d := &Design{
		Name:   "add",
		Inputs: []Signal{{Name: "a", Width: 4}, {Name: "b", Width: 4}},
		Regs:   []*Reg{{Name: "s", Width: 4, Next: Add{A: Ref{Name: "a"}, B: Ref{Name: "b"}}}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			env := Env{
				"a": constVals(a, 4),
				"b": constVals(b, 4),
				"s": vals(0, 0, 0, 0),
			}
			_, next, _, err := d.EvalStep(env)
			if err != nil {
				t.Fatal(err)
			}
			if got := toUint(t, next["s"]); got != (a+b)%16 {
				t.Fatalf("%d+%d = %d, want %d", a, b, got, (a+b)%16)
			}
		}
	}
}

func constVals(v uint64, w int) []logic.Value {
	out := make([]logic.Value, w)
	for i := range out {
		out[i] = logic.FromBool(v>>uint(i)&1 == 1)
	}
	return out
}

func TestEvalStepIncMuxConcat(t *testing.T) {
	d := &Design{
		Name:   "m",
		Inputs: []Signal{{Name: "en", Width: 1}, {Name: "a", Width: 2}, {Name: "b", Width: 2}},
		Regs: []*Reg{
			{Name: "c", Width: 4, Next: Inc{A: Ref{Name: "c"}}},
			{Name: "r", Width: 4, Next: Mux{
				Sel: Ref{Name: "en"},
				A:   Ref{Name: "r"},
				B:   Concat{Parts: []Expr{Ref{Name: "a"}, Ref{Name: "b"}}},
			}},
		},
		Outputs: []Output{
			{Name: "isSeven", Expr: EqConst{A: Ref{Name: "c"}, K: 7}},
			{Name: "any", Expr: RedOr{A: Ref{Name: "r"}}},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	env := Env{
		"en": constVals(1, 1),
		"a":  constVals(0b10, 2),
		"b":  constVals(0b01, 2),
		"c":  constVals(7, 4),
		"r":  constVals(0, 4),
	}
	_, next, outs, err := d.EvalStep(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := toUint(t, next["c"]); got != 8 {
		t.Errorf("inc: %d", got)
	}
	// Concat: a is the low part -> r = b<<2 | a = 0b0110.
	if got := toUint(t, next["r"]); got != 0b0110 {
		t.Errorf("mux/concat: %04b", got)
	}
	if outs["isSeven"][0] != logic.One {
		t.Errorf("EqConst: %s", outs["isSeven"][0])
	}
	if outs["any"][0] != logic.Zero {
		t.Errorf("RedOr of zero word: %s", outs["any"][0])
	}
}

func TestEvalStepWireChain(t *testing.T) {
	d := &Design{
		Name:   "w",
		Inputs: []Signal{{Name: "a", Width: 1}},
		Wires: []Wire{
			{Name: "w1", Width: 1, Expr: Not{A: Ref{Name: "a"}}},
			{Name: "w2", Width: 1, Expr: Not{A: Ref{Name: "w1"}}},
		},
		Regs: []*Reg{{Name: "r", Width: 1, Next: Ref{Name: "w2"}}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	env := Env{"a": vals(1), "r": vals(0)}
	wires, next, _, err := d.EvalStep(env)
	if err != nil {
		t.Fatal(err)
	}
	if wires["w1"][0] != logic.Zero || wires["w2"][0] != logic.One {
		t.Errorf("wires: %v", wires)
	}
	if next["r"][0] != logic.One {
		t.Errorf("reg: %v", next["r"])
	}
}

func TestEnvClone(t *testing.T) {
	e := Env{"a": vals(1, 0)}
	c := e.Clone()
	c["a"][0] = logic.Zero
	if e["a"][0] != logic.One {
		t.Error("Clone shares storage")
	}
}

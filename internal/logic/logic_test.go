package logic

import (
	"testing"
	"testing/quick"
)

func TestValueString(t *testing.T) {
	cases := map[Value]string{Zero: "0", One: "1", X: "X", Value(7): "X"}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("Value(%d).String() = %q, want %q", v, got, want)
		}
	}
}

func TestValueNot(t *testing.T) {
	if Zero.Not() != One || One.Not() != Zero || X.Not() != X {
		t.Errorf("Not: got %s %s %s", Zero.Not(), One.Not(), X.Not())
	}
}

func TestValueKnown(t *testing.T) {
	if !Zero.Known() || !One.Known() || X.Known() {
		t.Error("Known misclassifies values")
	}
}

func TestFromBool(t *testing.T) {
	if FromBool(true) != One || FromBool(false) != Zero {
		t.Error("FromBool wrong")
	}
}

func TestKindClassification(t *testing.T) {
	if !DFF.IsSequential() || DFF.IsCombinational() {
		t.Error("DFF classification wrong")
	}
	for _, k := range CombinationalKinds() {
		if !k.IsCombinational() || k.IsSequential() {
			t.Errorf("%s classification wrong", k)
		}
	}
	if Input.IsCombinational() || Input.IsSequential() {
		t.Error("Input pseudo-kind must be neither")
	}
}

func TestArity(t *testing.T) {
	cases := []struct {
		k    Kind
		n    int
		want bool
	}{
		{And, 1, false}, {And, 2, true}, {And, 7, true},
		{Not, 1, true}, {Not, 2, false},
		{Buf, 1, true},
		{Mux2, 3, true}, {Mux2, 2, false},
		{Aoi21, 3, true}, {Oai21, 3, true}, {Oai21, 4, false},
		{DFF, 1, true}, {DFF, 2, false},
		{Xor, 2, true}, {Xor, 5, true}, {Xor, 1, false},
	}
	for _, c := range cases {
		if got := c.k.ValidArity(c.n); got != c.want {
			t.Errorf("%s.ValidArity(%d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
}

func TestControllingValues(t *testing.T) {
	cases := []struct {
		k   Kind
		cv  Value
		has bool
	}{
		{And, Zero, true},
		{Nand, Zero, true},
		{Or, One, true},
		{Nor, One, true},
		{Xor, X, false},
		{Mux2, X, false},
		{Not, X, false},
	}
	for _, c := range cases {
		cv, has := c.k.ControllingValue()
		if has != c.has || cv != c.cv {
			t.Errorf("%s.ControllingValue() = %s,%v want %s,%v", c.k, cv, has, c.cv, c.has)
		}
	}
}

// TestEvalTruthTables checks binary evaluation against the boolean
// definitions over all 0/1 input combinations for every kind and small
// arities.
func TestEvalTruthTables(t *testing.T) {
	ref := func(k Kind, bits []bool) bool {
		and := func() bool {
			for _, b := range bits {
				if !b {
					return false
				}
			}
			return true
		}
		or := func() bool {
			for _, b := range bits {
				if b {
					return true
				}
			}
			return false
		}
		xor := func() bool {
			p := false
			for _, b := range bits {
				p = p != b
			}
			return p
		}
		switch k {
		case And:
			return and()
		case Nand:
			return !and()
		case Or:
			return or()
		case Nor:
			return !or()
		case Xor:
			return xor()
		case Xnor:
			return !xor()
		case Not:
			return !bits[0]
		case Buf:
			return bits[0]
		case Mux2:
			if bits[0] {
				return bits[2]
			}
			return bits[1]
		case Aoi21:
			return !(bits[0] && bits[1] || bits[2])
		case Oai21:
			return !((bits[0] || bits[1]) && bits[2])
		}
		t.Fatalf("no reference for %s", k)
		return false
	}
	for _, k := range CombinationalKinds() {
		arities := []int{2, 3, 4}
		if n, fixed := k.FixedArity(); fixed {
			arities = []int{n}
		}
		for _, n := range arities {
			for mask := 0; mask < 1<<n; mask++ {
				bits := make([]bool, n)
				vals := make([]Value, n)
				for i := range bits {
					bits[i] = mask>>i&1 == 1
					vals[i] = FromBool(bits[i])
				}
				want := FromBool(ref(k, bits))
				if got := Eval(k, vals); got != want {
					t.Fatalf("Eval(%s, %v) = %s, want %s", k, bits, got, want)
				}
			}
		}
	}
}

func TestEvalPartialKnowledge(t *testing.T) {
	cases := []struct {
		k    Kind
		in   []Value
		want Value
	}{
		{And, []Value{Zero, X}, Zero},
		{And, []Value{One, X}, X},
		{Nand, []Value{Zero, X, X}, One},
		{Or, []Value{One, X}, One},
		{Nor, []Value{X, One}, Zero},
		{Xor, []Value{X, One}, X},
		{Mux2, []Value{X, One, One}, One}, // both data equal: sel irrelevant
		{Mux2, []Value{X, One, Zero}, X},
		{Mux2, []Value{Zero, One, X}, One},
		{Aoi21, []Value{X, X, One}, Zero},
		{Aoi21, []Value{Zero, X, X}, X},
		{Oai21, []Value{X, X, Zero}, One},
	}
	for _, c := range cases {
		if got := Eval(c.k, c.in); got != c.want {
			t.Errorf("Eval(%s, %v) = %s, want %s", c.k, c.in, got, c.want)
		}
	}
}

func TestEvalPanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval(Not, 2 inputs) must panic")
		}
	}()
	Eval(Not, []Value{One, Zero})
}

// TestTryEval pins the non-panicking entry point used on leniently parsed
// netlists: bad arities and non-combinational kinds come back as errors with
// the same messages Eval panics with, and valid calls agree with Eval.
func TestTryEval(t *testing.T) {
	if _, err := TryEval(Not, []Value{One, Zero}); err == nil {
		t.Error("TryEval(NOT/2) returned no error")
	} else if want := "logic: NOT gate with 2 inputs"; err.Error() != want {
		t.Errorf("TryEval(NOT/2) err = %q, want %q", err, want)
	}
	if _, err := TryEval(DFF, []Value{One}); err == nil {
		t.Error("TryEval(DFF) returned no error")
	}
	for _, c := range []struct {
		k    Kind
		in   []Value
		want Value
	}{
		{And, []Value{One, One}, One},
		{Nand, []Value{One, Zero}, One},
		{Xor, []Value{One, Zero, X}, X},
		{Mux2, []Value{Zero, One, Zero}, One},
	} {
		got, err := TryEval(c.k, c.in)
		if err != nil {
			t.Errorf("TryEval(%s, %v): %v", c.k, c.in, err)
			continue
		}
		if got != c.want || got != Eval(c.k, c.in) {
			t.Errorf("TryEval(%s, %v) = %s, want %s (= Eval)", c.k, c.in, got, c.want)
		}
	}
}

// completions enumerates all 0/1 fillings of the unknown positions.
func completions(in []Value) [][]Value {
	var unknown []int
	for i, v := range in {
		if !v.Known() {
			unknown = append(unknown, i)
		}
	}
	var out [][]Value
	for mask := 0; mask < 1<<len(unknown); mask++ {
		c := append([]Value(nil), in...)
		for j, idx := range unknown {
			c[idx] = FromBool(mask>>j&1 == 1)
		}
		out = append(out, c)
	}
	return out
}

// TestImplyInputsSoundAndConflictExact brute-forces every kind, arity <= 3
// (4 for variadic), output value, and three-valued input combination: any
// value ImplyInputs forces must hold in every completion consistent with the
// output, and a conflict must be reported exactly when no completion exists.
func TestImplyInputsSoundAndConflictExact(t *testing.T) {
	for _, k := range CombinationalKinds() {
		arities := []int{2, 3, 4}
		if n, fixed := k.FixedArity(); fixed {
			arities = []int{n}
		}
		for _, n := range arities {
			total := 1
			for i := 0; i < n; i++ {
				total *= 3
			}
			for code := 0; code < total; code++ {
				in := make([]Value, n)
				c := code
				for i := 0; i < n; i++ {
					in[i] = Value(c % 3) // X, Zero, One
					c /= 3
				}
				for _, out := range []Value{Zero, One} {
					consistent := [][]Value{}
					for _, comp := range completions(in) {
						if Eval(k, comp) == out {
							consistent = append(consistent, comp)
						}
					}
					work := append([]Value(nil), in...)
					_, conflict := ImplyInputs(k, out, work)
					if len(consistent) == 0 {
						// ImplyInputs is unit propagation, not a SAT check:
						// it may miss some conflicts, but when it reports
						// one, it must be real — checked in the else branch.
						continue
					}
					if conflict {
						t.Fatalf("ImplyInputs(%s, %s, %v): spurious conflict", k, out, in)
					}
					for i, v := range work {
						if !v.Known() || in[i].Known() {
							continue
						}
						for _, comp := range consistent {
							if comp[i] != v {
								t.Fatalf("ImplyInputs(%s, %s, %v) forced in[%d]=%s but completion %v is consistent",
									k, out, in, i, v, comp)
							}
						}
					}
				}
			}
		}
	}
}

// TestEvalMonotone checks that refining an X input to a concrete value never
// changes an already-known output (quick property).
func TestEvalMonotone(t *testing.T) {
	f := func(kindSel uint8, raw []uint8, pos uint8, bit bool) bool {
		kinds := CombinationalKinds()
		k := kinds[int(kindSel)%len(kinds)]
		n := 3
		if fixed, ok := k.FixedArity(); ok {
			n = fixed
		}
		in := make([]Value, n)
		for i := range in {
			if i < len(raw) {
				in[i] = Value(raw[i] % 3)
			}
		}
		before := Eval(k, in)
		if !before.Known() {
			return true
		}
		p := int(pos) % n
		if in[p].Known() {
			return true
		}
		in[p] = FromBool(bit)
		return Eval(k, in) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Package logic defines the gate-level cell vocabulary used throughout
// gatewords: gate kinds, three-valued signal values (0, 1, X), controlling
// and controlled values, forward truth evaluation under partial knowledge,
// and backward implication rules.
//
// The reverse-engineering algorithms in this module are purely structural:
// they treat a gate kind as an opaque token when hashing circuit shapes. The
// semantic definitions here are what the circuit reducer (internal/reduce)
// and the validation simulator (internal/sim) rely on, so the two views stay
// consistent by construction.
package logic

import "fmt"

// Value is a three-valued logic level. X means "unknown / unassigned"; it is
// the lattice bottom that forward evaluation refines toward 0 or 1.
type Value uint8

// The three signal values.
const (
	X Value = iota // unknown
	Zero
	One
)

// String returns "0", "1" or "X".
func (v Value) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "X"
	}
}

// Known reports whether v is a definite 0 or 1.
func (v Value) Known() bool { return v == Zero || v == One }

// Not returns the complement of v; X maps to X.
func (v Value) Not() Value {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	default:
		return X
	}
}

// FromBool converts a Go bool to a Value.
func FromBool(b bool) Value {
	if b {
		return One
	}
	return Zero
}

// Kind identifies a cell type. The combinational kinds below form the
// technology alphabet of the mini synthesis flow; DFF is the only sequential
// kind. Input is a pseudo-kind used for primary inputs when a gate token is
// needed (it never appears as a real gate in a netlist).
type Kind uint8

// Supported cell kinds.
const (
	Invalid Kind = iota
	And          // n-input AND
	Or           // n-input OR
	Nand         // n-input NAND
	Nor          // n-input NOR
	Xor          // n-input XOR (odd parity)
	Xnor         // n-input XNOR (even parity)
	Not          // inverter
	Buf          // buffer
	Mux2         // 2:1 mux; inputs are [sel, a, b], output = sel ? b : a
	Aoi21        // AND-OR-INVERT: !((a&b) | c); inputs [a, b, c]
	Oai21        // OR-AND-INVERT: !((a|b) & c); inputs [a, b, c]
	DFF          // D flip-flop; inputs [d], output is register state
	Input        // pseudo-kind for primary inputs
	numKinds
)

var kindNames = [...]string{
	Invalid: "INVALID",
	And:     "AND",
	Or:      "OR",
	Nand:    "NAND",
	Nor:     "NOR",
	Xor:     "XOR",
	Xnor:    "XNOR",
	Not:     "NOT",
	Buf:     "BUF",
	Mux2:    "MUX2",
	Aoi21:   "AOI21",
	Oai21:   "OAI21",
	DFF:     "DFF",
	Input:   "INPUT",
}

// String returns the canonical upper-case cell name, e.g. "NAND".
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds returns all real cell kinds (everything except Invalid and Input),
// in a stable order. Useful for table-driven tests and generators.
func Kinds() []Kind {
	return []Kind{And, Or, Nand, Nor, Xor, Xnor, Not, Buf, Mux2, Aoi21, Oai21, DFF}
}

// CombinationalKinds returns the combinational subset of Kinds.
func CombinationalKinds() []Kind {
	return []Kind{And, Or, Nand, Nor, Xor, Xnor, Not, Buf, Mux2, Aoi21, Oai21}
}

// IsSequential reports whether k is a state-holding cell.
func (k Kind) IsSequential() bool { return k == DFF }

// IsCombinational reports whether k is a combinational cell.
func (k Kind) IsCombinational() bool {
	switch k {
	case And, Or, Nand, Nor, Xor, Xnor, Not, Buf, Mux2, Aoi21, Oai21:
		return true
	}
	return false
}

// FixedArity returns the required input count for kinds with a fixed pin
// list, and (0, false) for variadic kinds (And, Or, Nand, Nor, Xor, Xnor,
// which accept 2 or more inputs).
func (k Kind) FixedArity() (int, bool) {
	switch k {
	case Not, Buf, DFF:
		return 1, true
	case Mux2, Aoi21, Oai21:
		return 3, true
	case And, Or, Nand, Nor, Xor, Xnor:
		return 0, false
	}
	return 0, false
}

// ValidArity reports whether a k-kind gate may have n inputs.
func (k Kind) ValidArity(n int) bool {
	if fixed, ok := k.FixedArity(); ok {
		return n == fixed
	}
	switch k {
	case And, Or, Nand, Nor, Xor, Xnor:
		return n >= 2
	}
	return false
}

// ControllingValue returns the input value that by itself determines the
// output of a k-kind gate, and whether such a value exists. AND/NAND are
// controlled by 0; OR/NOR by 1. Parity gates, buffers, inverters, muxes and
// the complex AOI/OAI cells have no single controlling value on an arbitrary
// pin.
func (k Kind) ControllingValue() (Value, bool) {
	switch k {
	case And, Nand:
		return Zero, true
	case Or, Nor:
		return One, true
	}
	return X, false
}

// Eval computes the output of a k-kind combinational gate over three-valued
// inputs. The result is X unless the known inputs fully determine it. Eval
// panics if the arity is invalid for k, since that indicates a malformed
// netlist that should have been rejected earlier. Call sites that accept
// leniently parsed netlists — where malformed gates are legal — must use
// TryEval instead.
func Eval(k Kind, in []Value) Value {
	v, err := TryEval(k, in)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// TryEval is the non-panicking form of Eval: an invalid arity for k, or a
// non-combinational kind, is reported as an error (with X) instead of a
// panic. verilog.ParseLenient can legally produce such gates, so the lenient
// pipeline routes through TryEval and degrades the offending gate rather
// than crashing.
func TryEval(k Kind, in []Value) (Value, error) {
	if !k.ValidArity(len(in)) {
		return X, fmt.Errorf("logic: %s gate with %d inputs", k, len(in))
	}
	switch k {
	case Buf:
		return in[0], nil
	case Not:
		return in[0].Not(), nil
	case And:
		return evalAnd(in), nil
	case Nand:
		return evalAnd(in).Not(), nil
	case Or:
		return evalOr(in), nil
	case Nor:
		return evalOr(in).Not(), nil
	case Xor:
		return evalXor(in), nil
	case Xnor:
		return evalXor(in).Not(), nil
	case Mux2:
		return evalMux(in[0], in[1], in[2]), nil
	case Aoi21:
		return evalOr([]Value{evalAnd(in[:2]), in[2]}).Not(), nil
	case Oai21:
		return evalAnd([]Value{evalOr(in[:2]), in[2]}).Not(), nil
	}
	return X, fmt.Errorf("logic: Eval on non-combinational kind %s", k)
}

func evalAnd(in []Value) Value {
	sawX := false
	for _, v := range in {
		switch v {
		case Zero:
			return Zero
		case X:
			sawX = true
		}
	}
	if sawX {
		return X
	}
	return One
}

func evalOr(in []Value) Value {
	sawX := false
	for _, v := range in {
		switch v {
		case One:
			return One
		case X:
			sawX = true
		}
	}
	if sawX {
		return X
	}
	return Zero
}

func evalXor(in []Value) Value {
	parity := Zero
	for _, v := range in {
		if v == X {
			return X
		}
		if v == One {
			parity = parity.Not()
		}
	}
	return parity
}

// evalMux computes sel ? b : a, including the X-optimism rule: if a == b and
// both are known, the output is that value regardless of sel.
func evalMux(sel, a, b Value) Value {
	switch sel {
	case Zero:
		return a
	case One:
		return b
	}
	if a.Known() && a == b {
		return a
	}
	return X
}

// ImplyInputs performs backward implication: given a known output value out
// and the current (possibly partial) input values of a k-kind gate, it
// refines entries of in that are forced by gate semantics. It reports how
// many inputs were newly determined and whether the state is consistent
// (conflict == false). in is modified in place.
//
// The rules are unit-propagation style:
//   - AND out=1 / NAND out=0  => every input is 1 (dually OR/NOR with 0).
//   - AND out=0 with exactly one non-1 input left => that input is 0
//     (dually for OR/NAND/NOR).
//   - NOT/BUF propagate directly.
//   - XOR/XNOR with exactly one unknown input => it is determined by parity.
//   - MUX2 with known select propagates to the selected data pin.
//   - AOI21/OAI21 are decomposed through their internal structure.
func ImplyInputs(k Kind, out Value, in []Value) (newlyKnown int, conflict bool) {
	if !out.Known() {
		return 0, false
	}
	switch k {
	case Buf:
		return implySet(in, 0, out)
	case Not:
		return implySet(in, 0, out.Not())
	case And:
		return implyAndLike(in, out, One, Zero)
	case Nand:
		return implyAndLike(in, out.Not(), One, Zero)
	case Or:
		// OR is AND-like with identity 0: out==0 forces every input to 0.
		return implyAndLike(in, out, Zero, One)
	case Nor:
		return implyAndLike(in, out.Not(), Zero, One)
	case Xor:
		return implyParity(in, out)
	case Xnor:
		return implyParity(in, out.Not())
	case Mux2:
		return implyMux(in, out)
	case Aoi21, Oai21:
		return implyComplex(k, in, out)
	}
	return 0, false
}

// implySet forces in[i] = v, reporting conflicts with an existing known value.
func implySet(in []Value, i int, v Value) (int, bool) {
	if in[i] == v {
		return 0, false
	}
	if in[i].Known() {
		return 0, true
	}
	in[i] = v
	return 1, false
}

// implyAndLike handles the AND family after normalizing the output: treat
// the gate as AND with "identity" value id (the non-controlling input value)
// and controlling value ctrl. outAsAnd is the output expressed as if the
// gate were a plain AND/OR (caller pre-inverts for NAND/NOR).
func implyAndLike(in []Value, outAsAnd, id, ctrl Value) (int, bool) {
	n := 0
	if outAsAnd == id {
		// Output at identity level: all inputs must be at identity level.
		for i := range in {
			d, bad := implySet(in, i, id)
			if bad {
				return n, true
			}
			n += d
		}
		return n, false
	}
	// Output at controlled level: at least one input is controlling. If any
	// input is already controlling, nothing to infer. If exactly one input
	// is unknown and the rest are identity, it must be controlling.
	unknown := -1
	for i, v := range in {
		switch v {
		case ctrl:
			return n, false
		case X:
			if unknown >= 0 {
				return n, false // two candidates; nothing forced
			}
			unknown = i
		}
	}
	if unknown < 0 {
		return n, true // all identity but output controlled: conflict
	}
	d, bad := implySet(in, unknown, ctrl)
	return n + d, bad
}

// implyParity handles XOR: if exactly one input is unknown, it is set so the
// total parity matches out (out here is the required XOR of all inputs).
func implyParity(in []Value, out Value) (int, bool) {
	unknown := -1
	parity := Zero
	for i, v := range in {
		switch v {
		case X:
			if unknown >= 0 {
				return 0, false
			}
			unknown = i
		case One:
			parity = parity.Not()
		}
	}
	if unknown < 0 {
		if parity != out {
			return 0, true
		}
		return 0, false
	}
	need := Zero
	if parity != out {
		need = One
	}
	return implySet(in, unknown, need)
}

func implyMux(in []Value, out Value) (int, bool) {
	sel, a, b := in[0], in[1], in[2]
	n := 0
	switch sel {
	case Zero:
		d, bad := implySet(in, 1, out)
		return d, bad
	case One:
		d, bad := implySet(in, 2, out)
		return d, bad
	}
	// Select unknown. If one data pin is known to differ from out, the
	// select must point at the other pin.
	if a.Known() && a != out && b.Known() && b != out {
		return 0, true
	}
	if a.Known() && a != out {
		d, bad := implySet(in, 0, One)
		n += d
		if bad {
			return n, true
		}
		d, bad = implySet(in, 2, out)
		return n + d, bad
	}
	if b.Known() && b != out {
		d, bad := implySet(in, 0, Zero)
		n += d
		if bad {
			return n, true
		}
		d, bad = implySet(in, 1, out)
		return n + d, bad
	}
	return 0, false
}

// implyComplex performs implication for AOI21/OAI21 by brute force over the
// at-most-8 completions of the unknown inputs: an input is forced if it has
// the same value in every completion consistent with out.
func implyComplex(k Kind, in []Value, out Value) (int, bool) {
	unknown := make([]int, 0, 3)
	for i, v := range in {
		if !v.Known() {
			unknown = append(unknown, i)
		}
	}
	if len(unknown) == 0 {
		if Eval(k, in) != out {
			return 0, true
		}
		return 0, false
	}
	// forced[j] tracks the candidate forced value of unknown[j].
	forced := make([]Value, len(unknown))
	seen := false
	trial := make([]Value, len(in))
	for mask := 0; mask < 1<<len(unknown); mask++ {
		copy(trial, in)
		for j, idx := range unknown {
			if mask>>j&1 == 1 {
				trial[idx] = One
			} else {
				trial[idx] = Zero
			}
		}
		if Eval(k, trial) != out {
			continue
		}
		if !seen {
			for j, idx := range unknown {
				forced[j] = trial[idx]
			}
			seen = true
			continue
		}
		for j, idx := range unknown {
			if forced[j] != trial[idx] {
				forced[j] = X
			}
		}
	}
	if !seen {
		return 0, true
	}
	n := 0
	for j, idx := range unknown {
		if forced[j].Known() {
			in[idx] = forced[j]
			n++
		}
	}
	return n, false
}

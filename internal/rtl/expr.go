// Package rtl is a small register-transfer-level intermediate
// representation: named input ports, shared combinational wires, registers
// with next-state expressions, and outputs. It exists so the benchmark
// generator (internal/bench) can describe circuits the way the ITC99
// sources do — words, muxed loads, counters, FSM state — and have the mini
// synthesis flow (internal/synth) lower them to a flattened gate-level
// netlist with register names preserved on flip-flop outputs, reproducing
// the experimental setup of DAC'15 §3.
//
// Expressions come in two levels. Word-level Expr nodes (Ref, Const, Not,
// Bin, Add, Inc, Mux, Concat, EqConst, RedOr) describe multi-bit dataflow
// and are bit-blasted by the synthesizer. Bit-level BitExpr nodes (BRef,
// BConst, BOp) describe exact gate structure; the generator uses them where
// per-bit structural control matters (the partially-similar words at the
// heart of the paper).
package rtl

import (
	"fmt"

	"gatewords/internal/logic"
)

// Expr is a word-level expression. Width returns the expression's bit width
// given the design's signal table.
type Expr interface {
	exprNode()
}

// Ref reads a named signal (input, wire, or register output).
type Ref struct{ Name string }

// Const is a constant word; Bits[0] is bit 0 (LSB).
type Const struct{ Bits []bool }

// Not is bitwise complement.
type Not struct{ A Expr }

// Bin is a bitwise binary operation; Kind must be one of And, Or, Xor,
// Nand, Nor, Xnor.
type Bin struct {
	Kind logic.Kind
	A, B Expr
}

// Add is a ripple-carry addition (result truncated to the operand width).
type Add struct{ A, B Expr }

// Inc adds one (truncated).
type Inc struct{ A Expr }

// Mux selects B when Sel is 1, A when Sel is 0. Sel must be 1 bit wide.
type Mux struct {
	Sel  Expr
	A, B Expr
}

// Concat concatenates parts; Parts[0] supplies the least-significant bits.
type Concat struct{ Parts []Expr }

// EqConst compares a word against a constant, producing a single bit.
type EqConst struct {
	A Expr
	K uint64
}

// RedOr is the OR-reduction of a word to a single bit.
type RedOr struct{ A Expr }

func (Ref) exprNode()     {}
func (Const) exprNode()   {}
func (Not) exprNode()     {}
func (Bin) exprNode()     {}
func (Add) exprNode()     {}
func (Inc) exprNode()     {}
func (Mux) exprNode()     {}
func (Concat) exprNode()  {}
func (EqConst) exprNode() {}
func (RedOr) exprNode()   {}

// BitExpr is a bit-level expression describing exact gate structure.
type BitExpr interface {
	bitNode()
}

// BRef reads bit Bit of the named signal. For 1-bit signals Bit must be 0.
type BRef struct {
	Name string
	Bit  int
}

// BConst is a constant bit.
type BConst struct{ V bool }

// BOp applies a combinational gate kind to argument expressions; it maps
// one-to-one onto a gate during synthesis. Kind must be combinational and
// the argument count must satisfy the kind's arity rules (Mux2 takes
// [sel, a, b]; Aoi21/Oai21 take [a, b, c]).
type BOp struct {
	Kind logic.Kind
	Args []BitExpr
}

func (BRef) bitNode()   {}
func (BConst) bitNode() {}
func (BOp) bitNode()    {}

// B is a convenience constructor for BOp trees.
func B(kind logic.Kind, args ...BitExpr) BOp { return BOp{Kind: kind, Args: args} }

// Bit is a convenience constructor for BRef.
func Bit(name string, bit int) BRef { return BRef{Name: name, Bit: bit} }

// validateBitExpr checks arities and signal references.
func validateBitExpr(e BitExpr, widths map[string]int) error {
	switch n := e.(type) {
	case BRef:
		w, ok := widths[n.Name]
		if !ok {
			return fmt.Errorf("rtl: reference to undefined signal %q", n.Name)
		}
		if n.Bit < 0 || n.Bit >= w {
			return fmt.Errorf("rtl: bit %d out of range for %q (width %d)", n.Bit, n.Name, w)
		}
		return nil
	case BConst:
		return nil
	case BOp:
		if !n.Kind.IsCombinational() {
			return fmt.Errorf("rtl: BOp with non-combinational kind %s", n.Kind)
		}
		if !n.Kind.ValidArity(len(n.Args)) {
			return fmt.Errorf("rtl: %s with %d arguments", n.Kind, len(n.Args))
		}
		for _, a := range n.Args {
			if err := validateBitExpr(a, widths); err != nil {
				return err
			}
		}
		return nil
	case nil:
		return fmt.Errorf("rtl: nil bit expression")
	default:
		return fmt.Errorf("rtl: unknown bit expression %T", e)
	}
}

// exprWidth infers the width of a word-level expression.
func exprWidth(e Expr, widths map[string]int) (int, error) {
	switch n := e.(type) {
	case Ref:
		w, ok := widths[n.Name]
		if !ok {
			return 0, fmt.Errorf("rtl: reference to undefined signal %q", n.Name)
		}
		return w, nil
	case Const:
		if len(n.Bits) == 0 {
			return 0, fmt.Errorf("rtl: empty constant")
		}
		return len(n.Bits), nil
	case Not:
		return exprWidth(n.A, widths)
	case Bin:
		switch n.Kind {
		case logic.And, logic.Or, logic.Xor, logic.Nand, logic.Nor, logic.Xnor:
		default:
			return 0, fmt.Errorf("rtl: Bin with kind %s", n.Kind)
		}
		wa, err := exprWidth(n.A, widths)
		if err != nil {
			return 0, err
		}
		wb, err := exprWidth(n.B, widths)
		if err != nil {
			return 0, err
		}
		if wa != wb {
			return 0, fmt.Errorf("rtl: width mismatch in %s: %d vs %d", n.Kind, wa, wb)
		}
		return wa, nil
	case Add:
		wa, err := exprWidth(n.A, widths)
		if err != nil {
			return 0, err
		}
		wb, err := exprWidth(n.B, widths)
		if err != nil {
			return 0, err
		}
		if wa != wb {
			return 0, fmt.Errorf("rtl: width mismatch in Add: %d vs %d", wa, wb)
		}
		return wa, nil
	case Inc:
		return exprWidth(n.A, widths)
	case Mux:
		ws, err := exprWidth(n.Sel, widths)
		if err != nil {
			return 0, err
		}
		if ws != 1 {
			return 0, fmt.Errorf("rtl: Mux select must be 1 bit, got %d", ws)
		}
		wa, err := exprWidth(n.A, widths)
		if err != nil {
			return 0, err
		}
		wb, err := exprWidth(n.B, widths)
		if err != nil {
			return 0, err
		}
		if wa != wb {
			return 0, fmt.Errorf("rtl: width mismatch in Mux: %d vs %d", wa, wb)
		}
		return wa, nil
	case Concat:
		if len(n.Parts) == 0 {
			return 0, fmt.Errorf("rtl: empty Concat")
		}
		total := 0
		for _, p := range n.Parts {
			w, err := exprWidth(p, widths)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	case EqConst:
		if _, err := exprWidth(n.A, widths); err != nil {
			return 0, err
		}
		return 1, nil
	case RedOr:
		if _, err := exprWidth(n.A, widths); err != nil {
			return 0, err
		}
		return 1, nil
	case nil:
		return 0, fmt.Errorf("rtl: nil expression")
	default:
		return 0, fmt.Errorf("rtl: unknown expression %T", e)
	}
}

package verilog

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Parse parses a single flattened module from src and returns its netlist.
// file is used for error positions only.
func Parse(file, src string) (*netlist.Netlist, error) {
	p := &parser{lx: newLexer(file, src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	nl, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return nl, nil
}

// ParseLenient parses like Parse but for diagnostic front ends (gatelint):
// structural violations — multiply-driven nets, bad gate arities — are
// recorded on the netlist (see netlist.AddGateLenient and
// netlist.StructuralViolations) instead of aborting the parse, and the final
// Validate pass is skipped so a linter can report every defect in one run.
// Syntax errors still fail.
func ParseLenient(file, src string) (*netlist.Netlist, error) {
	p := &parser{lx: newLexer(file, src), lenient: true}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseModule()
}

// ParseReader parses a module from r.
func ParseReader(file string, r io.Reader) (*netlist.Netlist, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("verilog: reading %s: %w", file, err)
	}
	return Parse(file, string(data))
}

// ParseFile parses the module in the named file.
func ParseFile(path string) (*netlist.Netlist, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, string(data))
}

type parser struct {
	lx  *lexer
	tok token
	nl  *netlist.Netlist
	// lenient records structural violations on the netlist instead of
	// failing the parse (ParseLenient).
	lenient bool

	// resolveModule, when set (hierarchy elaboration), maps an unknown cell
	// name to an elaborated sub-module netlist and its header port order. A
	// nil netlist for a module cell parses the instance without splicing it.
	resolveModule func(cell string) (*netlist.Netlist, []string, bool)
	resolveErr    error

	pins       []netlist.NetID     // pin buffer reused by every instance
	ports      []string            // header port names, in order
	dir        map[string]byte     // 'i' or 'o' per declared port name
	buses      map[string]vecRange // declared vector ranges by name
	vectorBits int                 // bits declared through vector ranges so far
	consts     [2]netlist.NetID
	anon       int
}

// maxVectorBits caps the bits one module may declare through vector ranges.
// A range costs a few bytes of source but one net per bit, so without a cap
// a 43-byte module asking for [2147483647:0] would allocate until memory
// runs out. The cap (262,144) is more than twice the nets of the largest
// Table-1 analog (b18a, 114k), and the check runs before any bit of a range
// is declared.
const maxVectorBits = 1 << 18

// sizeHint estimates the nets, gates and gate input pins a module source
// declares, to size the netlist's first allocations. Every statement ends
// in ';' and every instance in ");". Declarations are the other statements:
// one net each as Write emits them, or long lists that are mostly gate
// outputs, which a gate count covers. Two to three inputs per gate is the
// common case.
//
// The counts come from untrusted text and are reserved before the source
// is checked, so each is capped at one per 16 bytes of source (Write
// averages 27 per statement) and at maxSizeHint. However a source arranges
// its semicolons, the reservation stays near 12 bytes per source byte and
// under about 24 MB.
func sizeHint(src string) (nets, gates, pins int) {
	limit := min(len(src)/16, maxSizeHint)
	stmts := min(strings.Count(src, ";"), limit)
	gates = min(strings.Count(src, ");"), limit)
	return max(stmts-gates, gates), gates, 3 * gates
}

// maxSizeHint covers the largest Table-1 analog, b18a (101k gates, 115k
// other statements); larger netlists grow past their first allocations.
const maxSizeHint = 1 << 17

// vecRange is a parsed "[msb:lsb]" and the position of its '['.
type vecRange struct {
	msb, lsb  int
	line, col int
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return p.errAt(p.tok.line, p.tok.col, format, args...)
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errf("expected %s, found %s %q", k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) accept(k tokenKind) (bool, error) {
	if p.tok.kind != k {
		return false, nil
	}
	return true, p.advance()
}

func (p *parser) keyword() string {
	if p.tok.kind == tokIdent {
		return p.tok.text
	}
	return ""
}

// addGate routes all gate construction: strict parses reject structural
// violations at the offending source line, lenient parses record them on the
// netlist for the linter.
func (p *parser) addGate(name string, kind logic.Kind, output netlist.NetID, inputs ...netlist.NetID) error {
	if p.lenient {
		p.nl.AddGateLenient(name, kind, output, inputs...)
		return nil
	}
	_, err := p.nl.AddGate(name, kind, output, inputs...)
	return err
}

func (p *parser) parseModule() (*netlist.Netlist, error) {
	if p.keyword() != "module" {
		return nil, p.errf("expected 'module'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	// Token texts alias the source, so net and gate names do too: the
	// source lives as long as the netlist, which is larger anyway. The
	// module name is copied out, because holders of just the name (a
	// service job, a report) outlive the netlist and would otherwise keep
	// the whole source alive.
	nets, gates, pins := sizeHint(p.lx.src)
	p.nl = netlist.NewSized(strings.Clone(nameTok.text), nets, gates, pins)
	p.dir = make(map[string]byte)
	p.buses = make(map[string]vecRange)
	p.consts = [2]netlist.NetID{netlist.NoNet, netlist.NoNet}

	if ok, err := p.accept(tokLParen); err != nil {
		return nil, err
	} else if ok {
		if err := p.parsePortHeader(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}

	for {
		switch kw := p.keyword(); {
		case kw == "endmodule":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return p.finish()
		case kw == "input" || kw == "output" || kw == "inout":
			if err := p.parseDirDecl(kw); err != nil {
				return nil, err
			}
		case kw == "wire" || kw == "tri":
			if err := p.parseWireDecl(); err != nil {
				return nil, err
			}
		case kw == "supply0" || kw == "supply1":
			if err := p.parseSupplyDecl(kw == "supply1"); err != nil {
				return nil, err
			}
		case kw == "assign":
			if err := p.parseAssign(); err != nil {
				return nil, err
			}
		case kw != "":
			if kind, ok := primitiveKind(kw); ok {
				if err := p.parsePrimitive(kind); err != nil {
					return nil, err
				}
				break
			}
			if err := p.parseInstance(kw); err != nil {
				return nil, err
			}
		case p.tok.kind == tokEOF:
			return nil, p.errf("unexpected end of file before 'endmodule'")
		default:
			return nil, p.errf("unexpected %s %q", p.tok.kind, p.tok.text)
		}
	}
}

// parsePortHeader handles both classic headers "(a, b, c)" and ANSI headers
// "(input a, output [2:0] y)".
func (p *parser) parsePortHeader() error {
	if ok, err := p.accept(tokRParen); err != nil || ok {
		return err
	}
	curDir := byte(0)
	var curRange *vecRange
	for {
		switch p.keyword() {
		case "input":
			curDir = 'i'
			curRange = nil
			if err := p.advance(); err != nil {
				return err
			}
		case "output":
			curDir = 'o'
			curRange = nil
			if err := p.advance(); err != nil {
				return err
			}
		case "inout":
			curDir = 'i'
			curRange = nil
			if err := p.advance(); err != nil {
				return err
			}
		case "wire", "reg":
			if err := p.advance(); err != nil {
				return err
			}
			continue
		}
		if p.tok.kind == tokLBracket {
			r, err := p.parseRange()
			if err != nil {
				return err
			}
			curRange = &r
		}
		nameTok, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		p.ports = append(p.ports, nameTok.text)
		if curDir != 0 {
			p.dir[nameTok.text] = curDir
			if curRange != nil {
				p.buses[nameTok.text] = *curRange
				if err := p.declareBus(nameTok.text, *curRange, curDir); err != nil {
					return err
				}
			} else {
				if err := p.declareScalar(nameTok.text, curDir); err != nil {
					return err
				}
			}
		}
		if ok, err := p.accept(tokComma); err != nil {
			return err
		} else if ok {
			continue
		}
		_, err = p.expect(tokRParen)
		return err
	}
}

func (p *parser) parseRange() (vecRange, error) {
	r := vecRange{line: p.tok.line, col: p.tok.col}
	if _, err := p.expect(tokLBracket); err != nil {
		return r, err
	}
	msbTok, err := p.expect(tokNumber)
	if err != nil {
		return r, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return r, err
	}
	lsbTok, err := p.expect(tokNumber)
	if err != nil {
		return r, err
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return r, err
	}
	var ok bool
	if r.msb, ok = bitIndex(msbTok.text); !ok {
		return r, p.errAt(r.line, r.col, "vector bound %s out of range", msbTok.text)
	}
	if r.lsb, ok = bitIndex(lsbTok.text); !ok {
		return r, p.errAt(r.line, r.col, "vector bound %s out of range", lsbTok.text)
	}
	return r, nil
}

// bitIndex parses a vector bound or bit-select. Indexes past MaxInt32 are
// out of range: no netlist holds that many nets, and the bound keeps a
// range's width from overflowing.
func bitIndex(text string) (int, bool) {
	n, err := strconv.Atoi(text)
	return n, err == nil && n <= math.MaxInt32
}

// errAt reports a syntax error at a given position, such as an earlier
// token's; errf reports one at the current token.
func (p *parser) errAt(line, col int, format string, args ...any) error {
	return &SyntaxError{File: p.lx.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func bitName(base string, idx int) string {
	return base + "[" + strconv.Itoa(idx) + "]"
}

func (p *parser) declareBus(name string, r vecRange, dir byte) error {
	lo, hi := r.lsb, r.msb
	if lo > hi {
		lo, hi = hi, lo
	}
	width := hi - lo + 1
	if width > maxVectorBits-p.vectorBits {
		return p.errAt(r.line, r.col, "vector %q [%d:%d] declares %d bits, past the limit of %d vector bits per module",
			name, r.msb, r.lsb, width, maxVectorBits)
	}
	p.vectorBits += width
	for i := lo; i <= hi; i++ {
		if err := p.declareScalar(bitName(name, i), dir); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) declareScalar(name string, dir byte) error {
	id := p.nl.EnsureNet(name)
	switch dir {
	case 'i':
		p.nl.MarkPI(id)
	case 'o':
		p.nl.MarkPO(id)
	}
	return nil
}

// parseDirDecl handles "input [3:0] a, b;" style declarations.
func (p *parser) parseDirDecl(kw string) error {
	dir := byte('i')
	if kw == "output" {
		dir = 'o'
	}
	if err := p.advance(); err != nil {
		return err
	}
	if p.keyword() == "wire" || p.keyword() == "reg" {
		if err := p.advance(); err != nil {
			return err
		}
	}
	var rng *vecRange
	if p.tok.kind == tokLBracket {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		rng = &r
	}
	for {
		nameTok, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		p.dir[nameTok.text] = dir
		if rng != nil {
			p.buses[nameTok.text] = *rng
			if err := p.declareBus(nameTok.text, *rng, dir); err != nil {
				return err
			}
		} else if err := p.declareScalar(nameTok.text, dir); err != nil {
			return err
		}
		if ok, err := p.accept(tokComma); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	_, err := p.expect(tokSemi)
	return err
}

func (p *parser) parseWireDecl() error {
	if err := p.advance(); err != nil {
		return err
	}
	var rng *vecRange
	if p.tok.kind == tokLBracket {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		rng = &r
	}
	for {
		nameTok, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if rng != nil {
			p.buses[nameTok.text] = *rng
			if err := p.declareBus(nameTok.text, *rng, 0); err != nil {
				return err
			}
		} else {
			p.nl.EnsureNet(nameTok.text)
		}
		if ok, err := p.accept(tokComma); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	_, err := p.expect(tokSemi)
	return err
}

// parseSupplyDecl treats "supply1 vdd;" as a constant net declaration.
func (p *parser) parseSupplyDecl(one bool) error {
	if err := p.advance(); err != nil {
		return err
	}
	for {
		nameTok, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		id := p.nl.EnsureNet(nameTok.text)
		// Model a supply as a buffered constant so the net has a driver.
		c := p.constNet(one)
		p.anon++
		if err := p.addGate(fmt.Sprintf("$supply%d", p.anon), logic.Buf, id, c); err != nil {
			return p.errf("supply net %q: %v", nameTok.text, err)
		}
		if ok, err := p.accept(tokComma); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	_, err := p.expect(tokSemi)
	return err
}

// constNet returns the shared $const0/$const1 tie-off net, creating it (as a
// primary input) on first use.
func (p *parser) constNet(one bool) netlist.NetID {
	idx := 0
	if one {
		idx = 1
	}
	if p.consts[idx] == netlist.NoNet {
		id := p.nl.EnsureNet(fmt.Sprintf("$const%d", idx))
		p.nl.MarkPI(id)
		p.consts[idx] = id
	}
	return p.consts[idx]
}

// netRef parses a net reference: IDENT with optional bit-select, or a based
// constant literal. Undeclared nets are created implicitly, as in Verilog.
func (p *parser) netRef() (netlist.NetID, error) {
	if p.tok.kind == tokBased {
		text := p.tok.text
		if err := p.advance(); err != nil {
			return netlist.NoNet, err
		}
		switch text {
		case "1'b0", "1'B0", "1'h0", "1'd0":
			return p.constNet(false), nil
		case "1'b1", "1'B1", "1'h1", "1'd1":
			return p.constNet(true), nil
		}
		return netlist.NoNet, p.errf("unsupported constant %q", text)
	}
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return netlist.NoNet, err
	}
	name := nameTok.text
	if p.tok.kind == tokLBracket {
		if err := p.advance(); err != nil {
			return netlist.NoNet, err
		}
		idxTok, err := p.expect(tokNumber)
		if err != nil {
			return netlist.NoNet, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return netlist.NoNet, err
		}
		idx, ok := bitIndex(idxTok.text)
		if !ok {
			return netlist.NoNet, p.errAt(idxTok.line, idxTok.col, "bit-select %s out of range", idxTok.text)
		}
		name = bitName(name, idx)
	} else if _, isBus := p.buses[name]; isBus {
		return netlist.NoNet, p.errf("vector net %q used without a bit-select", name)
	}
	return p.nl.EnsureNet(name), nil
}

// parseAssign handles "assign lhs = rhs;" where rhs is a net or a 1-bit
// constant; it becomes a BUF gate so that structure is preserved.
func (p *parser) parseAssign() error {
	if err := p.advance(); err != nil {
		return err
	}
	lhs, err := p.netRef()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokEquals); err != nil {
		return err
	}
	rhs, err := p.netRef()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	p.anon++
	if err := p.addGate(fmt.Sprintf("$assign%d", p.anon), logic.Buf, lhs, rhs); err != nil {
		return p.errf("assign: %v", err)
	}
	return nil
}

// parsePrimitive handles "nand g1 (y, a, b);" with an optional instance name.
func (p *parser) parsePrimitive(kind logic.Kind) error {
	if err := p.advance(); err != nil {
		return err
	}
	inst := ""
	if p.tok.kind == tokIdent {
		inst = p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	nets, err := p.positionalPins()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if len(nets) < 2 {
		return p.errf("gate primitive needs an output and at least one input")
	}
	if inst == "" {
		p.anon++
		inst = fmt.Sprintf("$gate%d", p.anon)
	}
	if err := p.addGate(inst, kind, nets[0], nets[1:]...); err != nil {
		return p.errf("gate %q: %v", inst, err)
	}
	return nil
}

// parseInstance handles library cell instances with positional or named
// connections: "NAND3 U12 (y, a, b, c);" or "DFF r (.D(d), .Q(q), .CK(clk));".
func (p *parser) parseInstance(cell string) error {
	kind, ok := CellKind(cell)
	if !ok {
		if p.resolveModule != nil {
			if sub, portOrder, isMod := p.resolveModule(cell); isMod {
				return p.parseSubmoduleInstance(cell, sub, portOrder)
			}
			if p.resolveErr != nil {
				return p.resolveErr
			}
		}
		return p.errf("unknown cell type %q", cell)
	}
	if err := p.advance(); err != nil {
		return err
	}
	instTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	// Optional "#(...)" parameter lists are not produced by synthesis
	// netlists we target; reject them clearly.
	if p.tok.kind == tokHash {
		return p.errf("parameterized instances are not supported")
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}

	out := netlist.NoNet
	var ins []netlist.NetID
	if p.tok.kind == tokDot {
		// ins[slot] is the net on input slot, NoNet until connected.
		ins = p.pins[:0]
		for {
			if _, err := p.expect(tokDot); err != nil {
				return err
			}
			pinTok, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			if _, err := p.expect(tokLParen); err != nil {
				return err
			}
			n, err := p.netRef()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return err
			}
			slot, known := pinRole(kind, pinTok.text)
			if !known {
				return p.errf("cell %s: unknown pin %q", cell, pinTok.text)
			}
			switch {
			case slot == -1:
				out = n
			case slot >= 0:
				for len(ins) <= slot {
					ins = append(ins, netlist.NoNet)
				}
				ins[slot] = n
			}
			if ok, err := p.accept(tokComma); err != nil {
				return err
			} else if !ok {
				break
			}
		}
		p.pins = ins
		for i, n := range ins {
			if n == netlist.NoNet {
				return p.errf("cell %s %s: input pin %d unconnected", cell, instTok.text, i)
			}
		}
	} else {
		nets, err := p.positionalPins()
		if err != nil {
			return err
		}
		if len(nets) < 2 {
			return p.errf("cell %s %s: needs an output and at least one input", cell, instTok.text)
		}
		out = nets[0]
		ins = nets[1:]
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if out == netlist.NoNet {
		return p.errf("cell %s %s: output pin unconnected", cell, instTok.text)
	}
	if err := p.addGate(instTok.text, kind, out, ins...); err != nil {
		return p.errf("cell %s %s: %v", cell, instTok.text, err)
	}
	return nil
}

// positionalPins parses a comma-separated list of net references into the
// shared pin buffer. The result is valid until the next instance is parsed;
// AddGate copies the pins it keeps.
func (p *parser) positionalPins() ([]netlist.NetID, error) {
	nets := p.pins[:0]
	for {
		n, err := p.netRef()
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
		if ok, err := p.accept(tokComma); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	p.pins = nets
	return nets, nil
}

func (p *parser) finish() (*netlist.Netlist, error) {
	for _, port := range p.ports {
		if _, declared := p.dir[port]; !declared {
			return nil, fmt.Errorf("%s: port %q has no direction declaration", p.lx.file, port)
		}
	}
	return p.nl, nil
}

// parseSubmoduleInstance handles a hierarchical instance of another library
// module: the connections are parsed (named ".port(net)" or positional in
// the child's header order), then the elaborated child is spliced inline
// with "<instance>/" name prefixing. Only scalar child ports are supported.
func (p *parser) parseSubmoduleInstance(cell string, sub *netlist.Netlist, portOrder []string) error {
	if err := p.advance(); err != nil {
		return err
	}
	instTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	bindings := map[string]netlist.NetID{}
	if p.tok.kind == tokDot {
		for {
			if _, err := p.expect(tokDot); err != nil {
				return err
			}
			pinTok, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			if _, err := p.expect(tokLParen); err != nil {
				return err
			}
			n, err := p.netRef()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return err
			}
			bindings[pinTok.text] = n
			if ok, err := p.accept(tokComma); err != nil {
				return err
			} else if !ok {
				break
			}
		}
	} else {
		idx := 0
		for {
			n, err := p.netRef()
			if err != nil {
				return err
			}
			if idx >= len(portOrder) {
				return p.errf("instance %s of %s: too many connections (module has %d ports)",
					instTok.text, cell, len(portOrder))
			}
			bindings[portOrder[idx]] = n
			idx++
			if ok, err := p.accept(tokComma); err != nil {
				return err
			} else if !ok {
				break
			}
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if sub == nil {
		return nil // the caller only counts this instance
	}
	// Resolve port names to the child's net names; vector ports are not
	// supported for hierarchical instances.
	netBindings := map[string]netlist.NetID{}
	for port, parent := range bindings {
		if _, ok := sub.NetByName(port); !ok {
			if _, isVec := sub.NetByName(port + "[0]"); isVec {
				return p.errf("instance %s of %s: vector port %q not supported in hierarchical instances",
					instTok.text, cell, port)
			}
			return p.errf("instance %s of %s: no port %q", instTok.text, cell, port)
		}
		netBindings[port] = parent
	}
	if err := p.splice(sub, instTok.text, netBindings); err != nil {
		return p.errf("%v", err)
	}
	return nil
}

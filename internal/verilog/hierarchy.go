package verilog

import (
	"fmt"
	"sort"

	"gatewords/internal/netlist"
)

// Library is a set of modules parsed from one or more source files, before
// elaboration. Third-party netlists often arrive with a module hierarchy;
// word identification operates on a flat netlist (the paper's threat model
// explicitly assumes hierarchy has been flattened away), so Library provides
// the flattener: Elaborate(top) recursively inlines sub-module instances,
// prefixing inner names with "<instance>/".
type Library struct {
	srcs  map[string]string   // module name -> source slice
	ports map[string][]string // module name -> header port order
	sizes map[string]int      // module name -> flatSize bound
	flat  map[string]*netlist.Netlist
	file  string
}

// ParseHierarchy splits src into its module definitions. Sources may be
// accumulated across several calls on the same Library (pass the previous
// result as lib; pass nil to start fresh).
func ParseHierarchy(lib *Library, file, src string) (*Library, error) {
	if lib == nil {
		lib = &Library{
			srcs:  map[string]string{},
			ports: map[string][]string{},
			sizes: map[string]int{},
			flat:  map[string]*netlist.Netlist{},
		}
	}
	lib.file = file
	lx := newLexer(file, src)
	type span struct {
		name       string
		start, end int
		ports      []string
	}
	var spans []span
	var cur *span
	prevEnd := 0
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		if tok.kind == tokEOF {
			break
		}
		switch {
		case tok.kind == tokIdent && tok.text == "module" && cur == nil:
			spans = append(spans, span{start: prevEnd})
			cur = &spans[len(spans)-1]
			// Module name follows.
			nameTok, err := lx.next()
			if err != nil {
				return nil, err
			}
			if nameTok.kind != tokIdent {
				return nil, &SyntaxError{File: file, Line: nameTok.line, Col: nameTok.col, Msg: "expected module name"}
			}
			cur.name = nameTok.text
			// Collect header port names up to ';'.
			depth := 0
			for {
				t, err := lx.next()
				if err != nil {
					return nil, err
				}
				if t.kind == tokEOF {
					return nil, &SyntaxError{File: file, Line: t.line, Col: t.col, Msg: "unexpected EOF in module header"}
				}
				if t.kind == tokLParen {
					depth++
					continue
				}
				if t.kind == tokRParen {
					depth--
					continue
				}
				if t.kind == tokSemi && depth == 0 {
					break
				}
				if t.kind == tokIdent && depth == 1 {
					switch t.text {
					case "input", "output", "inout", "wire", "reg":
						continue
					}
					cur.ports = append(cur.ports, t.text)
				}
			}
		case tok.kind == tokIdent && tok.text == "endmodule" && cur != nil:
			cur.end = lx.pos
			lib.srcs[cur.name] = src[cur.start:cur.end]
			lib.ports[cur.name] = cur.ports
			prevEnd = lx.pos
			cur = nil
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("%s: module %q has no endmodule", file, cur.name)
	}
	if len(lib.srcs) == 0 {
		return nil, fmt.Errorf("%s: no modules found", file)
	}
	return lib, nil
}

// Top guesses the top module: the one never instantiated by another. If
// several qualify the lexicographically first is returned. Instantiation is
// detected at the token level (an identifier naming another module,
// followed by an instance name and '('), so comments cannot confuse it.
func (lib *Library) Top() (string, error) {
	instantiated := map[string]bool{}
	for name, src := range lib.srcs {
		lx := newLexer(lib.file, src)
		var prev2, prev1 token
		for {
			tok, err := lx.next()
			if err != nil || tok.kind == tokEOF {
				break
			}
			if tok.kind == tokLParen && prev2.kind == tokIdent && prev1.kind == tokIdent {
				if _, isMod := lib.srcs[prev2.text]; isMod && prev2.text != name {
					instantiated[prev2.text] = true
				}
			}
			prev2, prev1 = prev1, tok
		}
	}
	var tops []string
	for name := range lib.srcs {
		if !instantiated[name] {
			tops = append(tops, name)
		}
	}
	if len(tops) == 0 {
		return "", fmt.Errorf("verilog: no top module (instantiation cycle?)")
	}
	sort.Strings(tops)
	return tops[0], nil
}

// maxFlatSize caps the nets plus gates of a flattened module. A module that
// instantiates the one before it twice doubles the flattened netlist per
// level, so a few kilobytes of source can ask for billions of gates. The cap
// is about five times b18a flat (101,302 gates plus 114,589 nets).
const maxFlatSize = 1 << 20

// Elaborate flattens the named module: every instance of another library
// module is inlined recursively, inner nets and gates renamed to
// "<instance>/<name>". The result validates and contains only library
// cells. A module whose flattened nets plus gates would exceed maxFlatSize
// is refused before anything is spliced.
func (lib *Library) Elaborate(top string) (*netlist.Netlist, error) {
	if _, err := lib.flatSize(top, map[string]bool{}); err != nil {
		return nil, err
	}
	return lib.elaborate(top, map[string]bool{})
}

// flatSize bounds the nets plus gates of the flattened module from above:
// its own nets and gates plus the bound of each module it instantiates (a
// port net bound to the parent counts on both sides). Each module is parsed
// once with its instances counted instead of spliced, and the bound is
// memoized, so the pass costs about one parse of the source however large
// the flattened netlist would be. It fails once the bound passes
// maxFlatSize.
func (lib *Library) flatSize(name string, inProgress map[string]bool) (int, error) {
	if n, ok := lib.sizes[name]; ok {
		return n, nil
	}
	size := 0
	nl, err := lib.parse(name, inProgress, func(cell string) (*netlist.Netlist, error) {
		n, err := lib.flatSize(cell, inProgress)
		size = min(size+n, maxFlatSize+1) // saturate: instances may repeat
		return nil, err                   // nil: count the instance, splice nothing
	})
	if err != nil {
		return 0, err
	}
	if size += nl.NetCount() + nl.GateCount(); size > maxFlatSize {
		return 0, fmt.Errorf("verilog: module %q flattens to more than %d nets plus gates", name, maxFlatSize)
	}
	lib.sizes[name] = size
	return size, nil
}

func (lib *Library) elaborate(name string, inProgress map[string]bool) (*netlist.Netlist, error) {
	if nl, ok := lib.flat[name]; ok {
		return nl, nil
	}
	nl, err := lib.parse(name, inProgress, func(cell string) (*netlist.Netlist, error) {
		return lib.elaborate(cell, inProgress)
	})
	if err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("%s: module %s: %w", lib.file, name, err)
	}
	lib.flat[name] = nl
	return nl, nil
}

// parse parses the named module, handing each instance of another
// library module to resolve: a netlist it returns is spliced in, and a nil
// netlist leaves the instance's connections parsed but nothing spliced.
func (lib *Library) parse(name string, inProgress map[string]bool, resolve func(cell string) (*netlist.Netlist, error)) (*netlist.Netlist, error) {
	src, ok := lib.srcs[name]
	if !ok {
		return nil, fmt.Errorf("verilog: no module %q in library", name)
	}
	if inProgress[name] {
		return nil, fmt.Errorf("verilog: instantiation cycle through module %q", name)
	}
	inProgress[name] = true
	defer delete(inProgress, name)

	p := &parser{lx: newLexer(lib.file, src)}
	p.resolveModule = func(cell string) (*netlist.Netlist, []string, bool) {
		if _, isMod := lib.srcs[cell]; !isMod {
			return nil, nil, false
		}
		sub, err := resolve(cell)
		if err != nil {
			p.resolveErr = err
			return nil, nil, false
		}
		return sub, lib.ports[cell], true
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	nl, err := p.parseModule()
	if err != nil {
		if p.resolveErr != nil {
			return nil, p.resolveErr
		}
		return nil, err
	}
	return nl, nil
}

// splice inlines an elaborated sub-module into the parent netlist.
// bindings maps the child's port net names to parent nets; all other child
// nets are created as "<inst>/<name>".
func (p *parser) splice(sub *netlist.Netlist, inst string, bindings map[string]netlist.NetID) error {
	mapped := make(map[netlist.NetID]netlist.NetID, sub.NetCount())
	for ni := 0; ni < sub.NetCount(); ni++ {
		id := netlist.NetID(ni)
		cname := sub.NetName(id)
		if parent, ok := bindings[cname]; ok {
			mapped[id] = parent
			continue
		}
		mapped[id] = p.nl.EnsureNet(inst + "/" + cname)
	}
	var ins []netlist.NetID // AddGate copies the pins it keeps
	for gi := 0; gi < sub.GateCount(); gi++ {
		g := sub.Gate(netlist.GateID(gi))
		ins = ins[:0]
		for _, in := range g.Inputs {
			ins = append(ins, mapped[in])
		}
		if _, err := p.nl.AddGate(inst+"/"+g.Name, g.Kind, mapped[g.Output], ins...); err != nil {
			return fmt.Errorf("instance %s: %v", inst, err)
		}
	}
	return nil
}

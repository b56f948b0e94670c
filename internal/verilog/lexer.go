// Package verilog reads and writes the structural gate-level Verilog subset
// that synthesis tools emit and that gatewords analyzes: a single flattened
// module with port declarations, scalar and vector wire declarations, gate
// primitives (and/or/nand/...), library cell instances with positional or
// named connections, and buffer-style assign statements.
//
// The parser preserves gate statement order — the adjacency heuristic of
// DAC'15 §2.2 operates on netlist-file line order, so order is semantic
// for this tool even though Verilog itself does not care.
package verilog

import (
	"fmt"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber // decimal integer
	tokBased  // based literal like 1'b0
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokSemi
	tokColon
	tokDot
	tokEquals
	tokHash
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of file"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokBased:
		return "based literal"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokColon:
		return "':'"
	case tokDot:
		return "'.'"
	case tokEquals:
		return "'='"
	case tokHash:
		return "'#'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// SyntaxError reports a parse failure with source position.
type SyntaxError struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

type lexer struct {
	file string
	src  string
	pos  int
	line int
	col  int
}

func newLexer(file, src string) *lexer {
	return &lexer{file: file, src: src, line: 1, col: 1}
}

func (lx *lexer) errf(line, col int, format string, args ...any) error {
	return &SyntaxError{File: lx.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekByte() (byte, bool) {
	if lx.pos >= len(lx.src) {
		return 0, false
	}
	return lx.src[lx.pos], true
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// next returns the next token, skipping whitespace and comments.
func (lx *lexer) next() (token, error) {
	for {
		c, ok := lx.peekByte()
		if !ok {
			return token{kind: tokEOF, line: lx.line, col: lx.col}, nil
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
			continue
		case c == '/':
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/' {
				for {
					c2, ok := lx.peekByte()
					if !ok || c2 == '\n' {
						break
					}
					lx.advance()
				}
				continue
			}
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*' {
				startLine, startCol := lx.line, lx.col
				lx.advance()
				lx.advance()
				closed := false
				for lx.pos < len(lx.src) {
					if lx.src[lx.pos] == '*' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/' {
						lx.advance()
						lx.advance()
						closed = true
						break
					}
					lx.advance()
				}
				if !closed {
					return token{}, lx.errf(startLine, startCol, "unterminated block comment")
				}
				continue
			}
			return token{}, lx.errf(lx.line, lx.col, "unexpected '/'")
		}
		break
	}

	line, col := lx.line, lx.col
	c := lx.src[lx.pos]
	switch c {
	case '(':
		lx.advance()
		return token{tokLParen, "(", line, col}, nil
	case ')':
		lx.advance()
		return token{tokRParen, ")", line, col}, nil
	case '[':
		lx.advance()
		return token{tokLBracket, "[", line, col}, nil
	case ']':
		lx.advance()
		return token{tokRBracket, "]", line, col}, nil
	case ',':
		lx.advance()
		return token{tokComma, ",", line, col}, nil
	case ';':
		lx.advance()
		return token{tokSemi, ";", line, col}, nil
	case ':':
		lx.advance()
		return token{tokColon, ":", line, col}, nil
	case '.':
		lx.advance()
		return token{tokDot, ".", line, col}, nil
	case '=':
		lx.advance()
		return token{tokEquals, "=", line, col}, nil
	case '#':
		lx.advance()
		return token{tokHash, "#", line, col}, nil
	case '\\':
		// Escaped identifier: backslash up to (exclusive) the next
		// whitespace. The backslash is not part of the net name.
		lx.advance()
		text := lx.scan(func(c byte) bool { return c != ' ' && c != '\t' && c != '\r' && c != '\n' })
		if text == "" {
			return token{}, lx.errf(line, col, "empty escaped identifier")
		}
		return token{tokIdent, text, line, col}, nil
	}

	if isDigit(c) {
		start := lx.pos
		lx.scan(isDigit)
		// A based literal like 1'b0 or 4'hF.
		if c2, ok := lx.peekByte(); ok && c2 == '\'' {
			lx.advance()
			lx.scan(func(c byte) bool { return isAlnum(c) || c == '_' })
			return token{tokBased, lx.src[start:lx.pos], line, col}, nil
		}
		return token{tokNumber, lx.src[start:lx.pos], line, col}, nil
	}

	if isIdentStart(c) {
		return token{tokIdent, lx.scan(isIdentChar), line, col}, nil
	}

	return token{}, lx.errf(line, col, "unexpected character %q", rune(c))
}

// scan consumes the longest run of bytes satisfying in and returns it as a
// substring of the source: token texts alias the source, so lexing copies
// nothing. in must reject '\n', which keeps the run on one line.
func (lx *lexer) scan(in func(byte) bool) string {
	start := lx.pos
	for lx.pos < len(lx.src) && in(lx.src[lx.pos]) {
		lx.pos++
	}
	lx.col += lx.pos - start
	return lx.src[start:lx.pos]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlnum(c byte) bool { return letters[c] || isDigit(c) }

func isIdentStart(c byte) bool { return letters[c] || c == '_' || c == '$' }

func isIdentChar(c byte) bool { return letters[c] || isDigit(c) || c == '_' || c == '$' }

// letters marks the bytes that unicode.IsLetter accepts when read as a
// rune, the identifier alphabet of this lexer: ASCII letters plus the
// bytes in 0xAA–0xFF that are Latin-1 letters. A table lookup parses b14a
// about 14% faster than calling unicode.IsLetter per byte.
var letters = func() (t [256]bool) {
	for c := range t {
		t[c] = unicode.IsLetter(rune(c))
	}
	return t
}()

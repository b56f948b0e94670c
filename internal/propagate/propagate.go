// Package propagate implements word propagation, the reverse-engineering
// stage the paper's evaluation points at downstream (§3: identified full
// words feed "word propagation in [6]"). Starting from seed words, it walks
// the netlist in word-parallel fashion:
//
//   - forward: if every bit of a word feeds the same pin position of a
//     column of same-type gates, the column's outputs form a derived word
//     (a register word propagates to the mux column ahead of it, an operand
//     word to the operator's result, ...);
//   - backward: if every bit of a word is driven by a column of same-type
//     gates, each input pin position of that column yields a derived word
//     (a result word recovers its operand words, including primary-input
//     buses).
//
// Propagation iterates to a fixpoint (bounded by MaxRounds), deduplicating
// words by bit-set. It is deliberately structural and cheap; its value is
// breadth — words reachable from verified seeds — rather than certainty, so
// derived words carry their provenance.
package propagate

import (
	"sort"
	"strconv"
	"strings"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Direction tags how a derived word was obtained.
type Direction uint8

// Provenance directions.
const (
	Seed Direction = iota
	Forward
	Backward
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Seed:
		return "seed"
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	}
	return "?"
}

// Word is a (possibly derived) word with provenance.
type Word struct {
	Bits []netlist.NetID
	Dir  Direction
	// From indexes the word this one was derived from (-1 for seeds).
	From int
	// Round is the propagation round that produced it (0 for seeds).
	Round int
}

// Options bounds propagation.
type Options struct {
	// MaxRounds caps fixpoint iterations (default 4).
	MaxRounds int
	// MinBits ignores seed and derived words narrower than this
	// (default 2).
	MinBits int
	// MaxWords aborts runaway growth (default 4096).
	MaxWords int
}

func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 4
	}
	if o.MinBits < 2 {
		o.MinBits = 2
	}
	if o.MaxWords <= 0 {
		o.MaxWords = 4096
	}
	return o
}

// Result is the propagation output: seeds first, then derived words in
// discovery order.
type Result struct {
	Words  []Word
	Rounds int
}

// Expand propagates the seed words through nl.
func Expand(nl *netlist.Netlist, seeds [][]netlist.NetID, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	seen := map[string]bool{}
	for _, s := range seeds {
		if len(s) < opt.MinBits {
			continue
		}
		key := wordKey(s)
		if seen[key] {
			continue
		}
		seen[key] = true
		res.Words = append(res.Words, Word{Bits: append([]netlist.NetID(nil), s...), Dir: Seed, From: -1})
	}

	frontier := make([]int, len(res.Words))
	for i := range frontier {
		frontier[i] = i
	}
	for round := 1; round <= opt.MaxRounds && len(frontier) > 0; round++ {
		res.Rounds = round
		var next []int
		for _, wi := range frontier {
			for _, cand := range deriveForward(nl, res.Words[wi].Bits) {
				next = addWord(res, seen, cand, Forward, wi, round, opt, next)
			}
			for _, cand := range deriveBackward(nl, res.Words[wi].Bits) {
				next = addWord(res, seen, cand, Backward, wi, round, opt, next)
			}
			if len(res.Words) >= opt.MaxWords {
				return res
			}
		}
		frontier = next
	}
	return res
}

func addWord(res *Result, seen map[string]bool, bits []netlist.NetID, dir Direction, from, round int, opt Options, next []int) []int {
	if len(bits) < opt.MinBits {
		return next
	}
	key := wordKey(bits)
	if seen[key] {
		return next
	}
	seen[key] = true
	res.Words = append(res.Words, Word{Bits: bits, Dir: dir, From: from, Round: round})
	return append(next, len(res.Words)-1)
}

// wordKey canonicalizes a bit set.
func wordKey(bits []netlist.NetID) string {
	ids := append([]netlist.NetID(nil), bits...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	for _, id := range ids {
		sb.WriteString(strconv.Itoa(int(id)))
		sb.WriteByte(',')
	}
	return sb.String()
}

// columnKey identifies a gate column candidate: same kind, same arity, and
// the word bit arriving on the same pin position.
type columnKey struct {
	kind  logic.Kind
	arity int
	pin   int
}

// deriveForward finds gate columns fed by the word: for each (kind, arity,
// pin) combination that covers every bit with distinct gates, the column
// outputs form a derived word.
func deriveForward(nl *netlist.Netlist, bits []netlist.NetID) [][]netlist.NetID {
	perBit := make([]map[columnKey][]netlist.GateID, len(bits))
	keys := map[columnKey]bool{}
	for i, b := range bits {
		perBit[i] = map[columnKey][]netlist.GateID{}
		for _, g := range nl.Net(b).Fanout {
			gate := nl.Gate(g)
			if !gate.Kind.IsCombinational() {
				continue
			}
			for pin, in := range gate.Inputs {
				if in != b {
					continue
				}
				k := columnKey{kind: gate.Kind, arity: len(gate.Inputs), pin: pin}
				perBit[i][k] = append(perBit[i][k], g)
				keys[k] = true
			}
		}
	}
	var out [][]netlist.NetID
	for k := range keys {
		cols := collectColumn(perBit, k)
		for _, col := range cols {
			word := make([]netlist.NetID, len(col))
			for i, g := range col {
				word[i] = nl.Gate(g).Output
			}
			out = append(out, word)
		}
	}
	sortWords(out)
	return out
}

// collectColumn assembles distinct-gate columns for one key: every bit must
// have at least one candidate gate, and a gate may serve only one bit. The
// greedy assignment takes the first unused candidate per bit; ambiguity
// beyond that (rare in practice) is resolved arbitrarily but
// deterministically.
func collectColumn(perBit []map[columnKey][]netlist.GateID, k columnKey) [][]netlist.GateID {
	used := map[netlist.GateID]bool{}
	col := make([]netlist.GateID, len(perBit))
	for i := range perBit {
		found := false
		for _, g := range perBit[i][k] {
			if !used[g] {
				used[g] = true
				col[i] = g
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return [][]netlist.GateID{col}
}

// deriveBackward inspects the word's driver column: if every bit is driven
// by a gate of one (kind, arity), each input pin position yields a derived
// word, provided its nets are pairwise distinct (shared nets are control
// signals, not word bits).
func deriveBackward(nl *netlist.Netlist, bits []netlist.NetID) [][]netlist.NetID {
	var kind logic.Kind
	arity := -1
	drivers := make([]*netlist.Gate, len(bits))
	for i, b := range bits {
		d := nl.Net(b).Driver
		if d == netlist.NoGate {
			return nil
		}
		g := nl.Gate(d)
		if !g.Kind.IsCombinational() && g.Kind != logic.DFF {
			return nil
		}
		if i == 0 {
			kind = g.Kind
			arity = len(g.Inputs)
		} else if g.Kind != kind || len(g.Inputs) != arity {
			return nil
		}
		drivers[i] = g
	}
	var out [][]netlist.NetID
	for pin := 0; pin < arity; pin++ {
		word := make([]netlist.NetID, len(bits))
		distinct := map[netlist.NetID]bool{}
		ok := true
		for i, g := range drivers {
			in := g.Inputs[pin]
			if distinct[in] {
				ok = false // a shared net across bits: a select, not a bit
				break
			}
			distinct[in] = true
			word[i] = in
		}
		if ok {
			out = append(out, word)
		}
	}
	sortWords(out)
	return out
}

// sortWords orders candidate lists deterministically (by first net ID).
func sortWords(words [][]netlist.NetID) {
	sort.Slice(words, func(i, j int) bool {
		return wordKey(words[i]) < wordKey(words[j])
	})
}

package bench

import (
	"testing"

	"gatewords/internal/core"
	"gatewords/internal/logic"
	"gatewords/internal/metrics"
	"gatewords/internal/netlist"
	"gatewords/internal/refwords"
	"gatewords/internal/shapehash"
)

func TestFigure1DesignValidates(t *testing.T) {
	if err := Figure1Design().Validate(); err != nil {
		t.Fatalf("Figure1Design does not validate: %v", err)
	}
}

func TestFigure1Synthesizes(t *testing.T) {
	nl, bits, err := Figure1Circuit()
	if err != nil {
		t.Fatalf("Figure1Circuit: %v", err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
	if len(bits) != 3 {
		t.Fatalf("want 3 word bits, got %d", len(bits))
	}
	refs := refwords.Extract(nl)
	if len(refs) != 2 {
		t.Fatalf("want 2 reference words (out, w2), got %d: %+v", len(refs), refs)
	}
}

// TestFigure1Base checks that shape hashing (the paper's "Base") only
// groups the two bits whose dissimilar subtrees share a structure, leaving
// the third bit apart: the word is partially found with fragmentation 2/3,
// matching the paper's walkthrough.
func TestFigure1Base(t *testing.T) {
	nl, _, err := Figure1Circuit()
	if err != nil {
		t.Fatalf("Figure1Circuit: %v", err)
	}
	refs := refwords.Extract(nl)
	res := shapehash.Identify(nl, 0)
	rep := metrics.Evaluate(refs, res.Words)
	var out metrics.WordResult
	for _, wr := range rep.Words {
		if wr.Ref.Name == "out_reg" {
			out = wr
		}
	}
	if out.Ref.Name != "out_reg" {
		t.Fatalf("reference word out_reg not evaluated; refs: %+v", refs)
	}
	if out.Outcome != metrics.PartiallyFound {
		t.Fatalf("Base on Figure 1: want partially-found, got %s (fragments %d)", out.Outcome, out.Fragments)
	}
	if out.Fragments != 2 {
		t.Errorf("Base fragments = %d, want 2 (bits 0,1 together; bit 2 apart)", out.Fragments)
	}
}

// TestFigure1Ours checks the full mechanism of the paper on its own
// example: the pipeline finds control signals U201 and U221 (pruning the
// dominated U223), verifies the 3-bit word under an assignment that sets a
// control signal to 0, and fully finds both reference words.
func TestFigure1Ours(t *testing.T) {
	nl, bits, err := Figure1Circuit()
	if err != nil {
		t.Fatalf("Figure1Circuit: %v", err)
	}
	refs := refwords.Extract(nl)
	res := core.Identify(nl, core.Options{CollectTrace: true})
	rep := metrics.Evaluate(refs, res.GeneratedWords())

	for _, wr := range rep.Words {
		if wr.Outcome != metrics.FullyFound {
			t.Errorf("word %s: want fully-found, got %s", wr.Ref.Name, wr.Outcome)
		}
	}

	// The word containing the 3 bits must be verified through a control
	// assignment that includes U201=0 or U221=0 on the decode nets.
	var word *core.Word
	for i := range res.Words {
		if containsAll(res.Words[i].Bits, bits) {
			word = &res.Words[i]
			break
		}
	}
	if word == nil {
		t.Fatalf("no generated word contains all 3 bits; words: %v; trace: %v", res.Words, res.Trace)
	}
	if !word.Verified {
		t.Errorf("word not verified; trace: %v", res.Trace)
	}
	if len(word.Controls) == 0 {
		t.Fatalf("no control signals recorded for the word; trace: %v", res.Trace)
	}
	for _, c := range word.Controls {
		if v := word.Assignment[c]; v != logic.Zero {
			t.Errorf("control %s assigned %s, want 0 (controlling value of the NANDs it feeds)", nl.NetName(c), v)
		}
	}

	// Found control signals must be exactly the decode nets u201/u221
	// (synthesized under U-names); the dominated u223 must be pruned.
	found := map[string]bool{}
	for _, c := range res.FoundControlSignals {
		found[nl.NetName(c)] = true
	}
	u201 := netNameOfWire(t, nl, "u201")
	u221 := netNameOfWire(t, nl, "u221")
	u223 := netNameOfWire(t, nl, "u223")
	if !found[u201] || !found[u221] {
		t.Errorf("control signals found %v; want both %s (u201) and %s (u221)", res.FoundControlSignals, u201, u221)
	}
	if found[u223] {
		t.Errorf("dominated net %s (u223) must be pruned from control signals", u223)
	}
}

// netNameOfWire resolves a figure-1 wire's synthesized net name by
// re-synthesizing the design and reading the wire table.
func netNameOfWire(t *testing.T, nl *netlist.Netlist, wire string) string {
	t.Helper()
	res := mustSynthFigure1(t)
	nets := res.WireNets[wire]
	if len(nets) != 1 {
		t.Fatalf("wire %q: got nets %v", wire, nets)
	}
	return res.NL.NetName(nets[0])
}

func containsAll(have, want []netlist.NetID) bool {
	set := make(map[netlist.NetID]bool, len(have))
	for _, n := range have {
		set[n] = true
	}
	for _, n := range want {
		if !set[n] {
			return false
		}
	}
	return true
}

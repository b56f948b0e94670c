package metrics

import (
	"math"
	"testing"

	"gatewords/internal/netlist"
	"gatewords/internal/refwords"
)

func ref(name string, bits ...netlist.NetID) refwords.Word {
	return refwords.Word{Name: name, Bits: bits}
}

func TestFullyFound(t *testing.T) {
	refs := []refwords.Word{ref("w", 1, 2, 3)}
	// A generated word may contain extra nets and still fully find.
	rep := Evaluate(refs, [][]netlist.NetID{{1, 2, 3, 99}})
	if rep.FullyFound != 1 || rep.NotFound != 0 || rep.PartiallyFound != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.FullyFoundPct() != 100 {
		t.Errorf("pct %f", rep.FullyFoundPct())
	}
	if rep.Words[0].Outcome != FullyFound || rep.Words[0].Fragments != 1 {
		t.Errorf("word result: %+v", rep.Words[0])
	}
}

func TestNotFound(t *testing.T) {
	refs := []refwords.Word{ref("w", 1, 2, 3)}
	// Every bit in a different generated word.
	rep := Evaluate(refs, [][]netlist.NetID{{1}, {2}, {3}})
	if rep.NotFound != 1 {
		t.Fatalf("report: %+v", rep)
	}
	// Bits not covered at all are also singletons.
	rep = Evaluate(refs, [][]netlist.NetID{{1}})
	if rep.NotFound != 1 {
		t.Fatalf("uncovered bits: %+v", rep)
	}
	if rep.NotFoundPct() != 100 {
		t.Errorf("pct %f", rep.NotFoundPct())
	}
}

// TestPaperFragmentationExample reproduces the paper's definition: "an
// 8-bit reference word split into two 4-bit generated words would be
// fragmented into two pieces", normalized by word size -> 2/8.
func TestPaperFragmentationExample(t *testing.T) {
	refs := []refwords.Word{ref("w", 1, 2, 3, 4, 5, 6, 7, 8)}
	rep := Evaluate(refs, [][]netlist.NetID{{1, 2, 3, 4}, {5, 6, 7, 8}})
	if rep.PartiallyFound != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if math.Abs(rep.FragmentationRate-0.25) > 1e-9 {
		t.Errorf("fragmentation %f, want 0.25", rep.FragmentationRate)
	}
	if rep.Words[0].Fragments != 2 {
		t.Errorf("fragments %d", rep.Words[0].Fragments)
	}
}

func TestPartialWithUncoveredBits(t *testing.T) {
	// 4-bit word: 2 bits grouped, 2 bits uncovered -> 3 fragments.
	refs := []refwords.Word{ref("w", 1, 2, 3, 4)}
	rep := Evaluate(refs, [][]netlist.NetID{{1, 2}})
	if rep.PartiallyFound != 1 || rep.Words[0].Fragments != 3 {
		t.Fatalf("report: %+v", rep.Words[0])
	}
	if math.Abs(rep.FragmentationRate-0.75) > 1e-9 {
		t.Errorf("frag %f", rep.FragmentationRate)
	}
}

func TestFragmentationAveragesOnlyPartial(t *testing.T) {
	refs := []refwords.Word{
		ref("full", 1, 2),
		ref("part", 3, 4, 5, 6),
		ref("none", 7, 8),
	}
	gen := [][]netlist.NetID{{1, 2}, {3, 4}, {5, 6}, {7}, {8}}
	rep := Evaluate(refs, gen)
	if rep.FullyFound != 1 || rep.PartiallyFound != 1 || rep.NotFound != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if math.Abs(rep.FragmentationRate-0.5) > 1e-9 {
		t.Errorf("frag %f, want 0.5 (only the partial word)", rep.FragmentationRate)
	}
}

func TestZeroFragmentationConvention(t *testing.T) {
	refs := []refwords.Word{ref("w", 1, 2)}
	rep := Evaluate(refs, [][]netlist.NetID{{1, 2}})
	if rep.FragmentationRate != 0 {
		t.Errorf("no partial words must report 0 fragmentation")
	}
}

func TestFirstWordWinsOnOverlap(t *testing.T) {
	// A net claimed by two generated words belongs to the first.
	refs := []refwords.Word{ref("w", 1, 2)}
	rep := Evaluate(refs, [][]netlist.NetID{{1, 2}, {2, 99}})
	if rep.FullyFound != 1 {
		t.Fatalf("overlap handling: %+v", rep)
	}
}

// TestScoreWordConvention pins the documented convention for the degenerate
// word sizes where the paper's two conditions ("fragments == 1" for fully
// found, "fragments == len(bits)" for not found) are not mutually exclusive.
func TestScoreWordConvention(t *testing.T) {
	cases := []struct {
		name string
		ref  refwords.Word
		gen  [][]netlist.NetID
		want Outcome
	}{
		// 0 bits: nothing to score, and fragments/len would divide by zero.
		{"empty word", ref("w"), [][]netlist.NetID{{1, 2}}, NotFound},
		// 1 bit: fully found iff a real generated word covers the bit.
		{"1-bit covered", ref("w", 1), [][]netlist.NetID{{1, 2}}, FullyFound},
		{"1-bit covered by singleton gen word", ref("w", 1), [][]netlist.NetID{{1}}, FullyFound},
		{"1-bit uncovered", ref("w", 1), [][]netlist.NetID{{2, 3}}, NotFound},
		{"1-bit above every generated net", ref("w", 9), [][]netlist.NetID{{2, 3}}, NotFound},
		{"1-bit no generated words", ref("w", 1), nil, NotFound},
		// >= 2 bits: the paper's conditions apply unchanged.
		{"2-bit together", ref("w", 1, 2), [][]netlist.NetID{{1, 2}}, FullyFound},
		{"2-bit apart", ref("w", 1, 2), [][]netlist.NetID{{1}, {2}}, NotFound},
		{"2-bit one covered one not", ref("w", 1, 2), [][]netlist.NetID{{1, 9}}, NotFound},
		{"3-bit partial", ref("w", 1, 2, 3), [][]netlist.NetID{{1, 2}}, PartiallyFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Evaluate([]refwords.Word{tc.ref}, tc.gen)
			if got := rep.Words[0].Outcome; got != tc.want {
				t.Fatalf("outcome = %v, want %v (result %+v)", got, tc.want, rep.Words[0])
			}
			// Degenerate sizes never contribute fragmentation — no NaN/Inf
			// and no poisoning of the aggregate rate.
			if f := rep.Words[0].Fragmentation; math.IsNaN(f) || math.IsInf(f, 0) {
				t.Errorf("fragmentation = %v", f)
			}
			if tc.want != PartiallyFound && rep.FragmentationRate != 0 {
				t.Errorf("fragmentation rate = %v, want 0", rep.FragmentationRate)
			}
		})
	}
}

// TestOverlapTieBreakIsFirstWins is the regression test for Evaluate's
// documented tie-break: a net claimed by several generated words belongs to
// the FIRST one in emission order, so reordering otherwise-identical
// generated words can legitimately change the score — and scoring must match
// the order given, not e.g. the largest or last claimant.
func TestOverlapTieBreakIsFirstWins(t *testing.T) {
	refs := []refwords.Word{ref("w", 1, 2, 3)}
	// {1,2,3} first: fully found, whatever follows.
	rep := Evaluate(refs, [][]netlist.NetID{{1, 2, 3}, {1}, {2, 9}, {3, 8}})
	if rep.FullyFound != 1 {
		t.Fatalf("winner first: %+v", rep.Words[0])
	}
	// Same words with the singletons first: bits 1..3 are attributed to
	// three distinct earlier words, so the trailing {1,2,3} never owns them.
	rep = Evaluate(refs, [][]netlist.NetID{{1}, {2, 9}, {3, 8}, {1, 2, 3}})
	if rep.NotFound != 1 {
		t.Fatalf("winner last: %+v", rep.Words[0])
	}
	if rep.Words[0].Fragments != 3 {
		t.Errorf("fragments = %d, want 3 (one per claiming word)", rep.Words[0].Fragments)
	}
	// Partial overlap: {1,2} wins bits 1 and 2, {2,3} keeps only bit 3.
	rep = Evaluate(refs, [][]netlist.NetID{{1, 2}, {2, 3}})
	if rep.PartiallyFound != 1 || rep.Words[0].Fragments != 2 {
		t.Fatalf("partial overlap: %+v", rep.Words[0])
	}
}

func TestEmptyInputs(t *testing.T) {
	rep := Evaluate(nil, nil)
	if rep.RefWords != 0 || rep.FullyFoundPct() != 0 || rep.NotFoundPct() != 0 {
		t.Errorf("empty: %+v", rep)
	}
}

func TestOutcomeString(t *testing.T) {
	if FullyFound.String() != "fully-found" || PartiallyFound.String() != "partially-found" || NotFound.String() != "not-found" {
		t.Error("outcome strings")
	}
}

func TestTwoBitWordEdge(t *testing.T) {
	// For a 2-bit word the outcomes are binary: together = fully found,
	// apart = not found; "partial" is impossible.
	refs := []refwords.Word{ref("w", 1, 2)}
	if rep := Evaluate(refs, [][]netlist.NetID{{1, 2}}); rep.FullyFound != 1 {
		t.Error("together")
	}
	if rep := Evaluate(refs, [][]netlist.NetID{{1}, {2}}); rep.NotFound != 1 {
		t.Error("apart")
	}
}

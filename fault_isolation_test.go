package gatewords

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"gatewords/internal/group"
	"gatewords/internal/guard"
	"gatewords/internal/obs"
)

// TestFaultIsolationB14a is the acceptance-level isolation check on the b14
// analog, through the public facade: inject a panic into one specific
// group's pipeline and require the remaining groups' words to be
// byte-identical to the clean sequential run, with exactly one entry in
// Report.Failures — in both the sequential and the parallel path (the
// latter exercised under `make faults`, which runs this file with -race).
func TestFaultIsolationB14a(t *testing.T) {
	if testing.Short() {
		t.Skip("b14a generation is slow; skipped with -short")
	}
	defer guard.Reset()
	d, err := GenerateBenchmark("b14a")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Identify(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Words) == 0 {
		t.Fatal("clean b14a run found no words")
	}
	// Attribute each clean word to its adjacency group (a word's bits never
	// cross groups) and target the first group that contributes a word.
	groups := group.Adjacent(d.nl, group.Options{})
	groupOf := make(map[string]int)
	for gi, nets := range groups {
		for _, n := range nets {
			groupOf[d.nl.NetName(n)] = gi
		}
	}
	target := groupOf[clean.Words[0].Bits[0]]
	var expected [][]string
	for _, w := range clean.Words {
		if groupOf[w.Bits[0]] != target {
			expected = append(expected, w.Bits)
		}
	}
	if len(expected) == len(clean.Words) {
		t.Fatalf("target group %d contributes no words; bad target choice", target)
	}
	for _, workers := range []int{1, 4} {
		guard.Reset()
		guard.Plant("match", target)
		rep, err := Identify(d, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rep.Failures) != 1 {
			t.Fatalf("workers=%d: Report.Failures = %v, want exactly one", workers, rep.Failures)
		}
		if f := rep.Failures[0]; f.Group != target || f.Stage != "match" || f.Stack == "" {
			t.Fatalf("workers=%d: failure %+v, want group %d stage match with a stack", workers, f, target)
		}
		var surviving [][]string
		for _, w := range rep.Words {
			surviving = append(surviving, w.Bits)
		}
		if !reflect.DeepEqual(surviving, expected) {
			t.Fatalf("workers=%d: surviving words differ from the clean run minus group %d:\ngot  %d words\nwant %d words",
				workers, target, len(surviving), len(expected))
		}
	}
}

// TestFaultFacadeSurfacesFailures checks the public API end of the chain:
// a recovered group panic reaches Report.Failures with the same fields the
// core recorded, and the words facade still returns the surviving words.
func TestFaultFacadeSurfacesFailures(t *testing.T) {
	defer guard.Reset()
	d, err := ParseVerilogFile("testdata/counter_style.v")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Identify(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	guard.Plant("match", guard.AnyGroup)
	rep, err := Identify(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("Report.Failures = %v, want exactly one", rep.Failures)
	}
	f := rep.Failures[0]
	if f.Stage != "match" || f.Message == "" || f.Stack == "" {
		t.Fatalf("facade failure lost fields: %+v", f)
	}
	if len(rep.Words) >= len(clean.Words) && len(clean.Words) > 0 {
		// counter_style has a single group, so its failure drops all words.
		t.Errorf("faulted run kept %d words, clean %d", len(rep.Words), len(clean.Words))
	}
}

// TestLenientMalformedGateDoesNotPanicIdentify is the end-to-end lenient
// regression: a leniently parsed netlist may carry a bad-arity gate, and
// when an assignment trial's constant propagation reaches it, the reduce
// layer must fail that trial with an error instead of panicking out of
// logic.Eval. The pipeline keeps going and still reports words. The gate
// lies outside every trial's region, so the trial that assigns k1 fails
// only because a netlist holding such a gate propagates whole: of the two
// trials, one reduces.
func TestLenientMalformedGateDoesNotPanicIdentify(t *testing.T) {
	src, err := os.ReadFile("testdata/counter_style.v")
	if err != nil {
		t.Fatal(err)
	}
	// Hang a one-input NAND (illegal arity; lenient parse keeps it) off the
	// control signal k1, inside the fanout every trial propagates through.
	broken := strings.Replace(string(src), "endmodule",
		"  wire zbad;\n  nand UBAD (zbad, k1);\nendmodule", 1)
	d, err := ParseVerilogLenient("broken_counter.v", broken)
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver()
	rep, err := Identify(d, Options{Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		// The malformed gate must surface as a failed trial, not a recovered
		// panic: panics would mean the TryEval routing regressed.
		t.Fatalf("malformed gate escalated to a group failure: %v", rep.Failures)
	}
	if len(rep.Words) == 0 {
		t.Fatal("lenient netlist with one malformed gate lost all words")
	}
	rec := o.snapshot()
	if trials, reductions := rec.Count(obs.CtrTrials), rec.Count(obs.CtrReductions); trials != 2 || reductions != 1 {
		t.Fatalf("trials/reductions = %d/%d, want 2/1: the trial reaching the malformed gate must fail", trials, reductions)
	}
}

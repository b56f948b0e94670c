package gatewords

import "testing"

// TestVerifyReductionOnB14 is the acceptance gate for the semantic analysis
// layer: on every benchmark analog whose words use control signals, bar the
// slow b18, every control-signal reduction that backs an emitted word must
// have each rewritten bit cone PROVED equivalent to the original cone under
// the assigned control values. No cone may be refuted or left unknown, and
// every design must prove some.
func TestVerifyReductionOnB14(t *testing.T) {
	if testing.Short() {
		t.Skip("b14 generation in -short mode")
	}
	for _, name := range []string{"b08", "b12", "b13", "b14", "b14a", "b15", "b17"} {
		t.Run(name, func(t *testing.T) {
			d, err := GenerateBenchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Identify(d, Options{VerifyReduction: true})
			if err != nil {
				t.Fatal(err)
			}
			rv := rep.ReductionVerification
			if rv == nil {
				t.Fatal("VerifyReduction set but no verification report")
			}
			if rv.ConesRefuted != 0 {
				t.Fatalf("%d rewritten cones REFUTED — reduction unsound: %+v",
					rv.ConesRefuted, rv.Failures)
			}
			if !rv.Sound() {
				t.Fatal("Sound() false with zero refutations")
			}
			if rv.ConesUnknown != 0 {
				t.Fatalf("%d rewritten cones undecided: %+v", rv.ConesUnknown, rv.Failures)
			}
			if rv.ConesProved == 0 {
				t.Fatalf("no cones proved (control signals used: %v)", rep.ControlSignalsUsed)
			}
			t.Logf("%s: proved=%d refuted=%d unknown=%d words=%d",
				name, rv.ConesProved, rv.ConesRefuted, rv.ConesUnknown, len(rep.Words))
		})
	}
}

// TestVerifyReductionParallelMerge checks the verification stats survive the
// parallel group-merge path unchanged.
func TestVerifyReductionParallelMerge(t *testing.T) {
	d, err := GenerateBenchmark("b08")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Identify(d, Options{VerifyReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Identify(d, Options{VerifyReduction: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sv, pv := seq.ReductionVerification, par.ReductionVerification
	if sv == nil || pv == nil {
		t.Fatal("missing verification report")
	}
	if sv.ConesProved != pv.ConesProved || sv.ConesRefuted != pv.ConesRefuted || sv.ConesUnknown != pv.ConesUnknown {
		t.Fatalf("parallel merge diverged: seq=%+v par=%+v", sv, pv)
	}
}

package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gatewords/internal/group"
	"gatewords/internal/guard"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
)

// wordSet renders a result's words as order-insensitive multiset keys so the
// fault tests can check containment without attributing words to groups.
func wordSet(res *Result) map[string]int {
	set := make(map[string]int)
	for _, w := range res.Words {
		set[fmt.Sprint(w.Bits)]++
	}
	return set
}

// TestFaultMatrix plants one fault at every pipeline stage, in both the
// sequential and the parallel path, and checks the recovery contract each
// time: no crash, exactly one structured failure attributed to the planted
// stage, the recovery counted in the observer, and every surviving word one
// the clean run also produced.
func TestFaultMatrix(t *testing.T) {
	defer guard.Reset()
	nl := bigNet(t)
	clean := Identify(nl, Options{VerifyReduction: true})
	if len(clean.Failures) != 0 {
		t.Fatalf("clean run reported failures: %v", clean.Failures)
	}
	cleanWords := wordSet(clean)
	for _, stage := range []string{"match", "ctrlsig", "trial", "verify"} {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", stage, workers), func(t *testing.T) {
				guard.Reset()
				guard.Plant(stage, guard.AnyGroup)
				rec := obs.New()
				res := Identify(nl, Options{Workers: workers, Observer: rec, VerifyReduction: true})
				if guard.Planted() != 0 {
					t.Fatalf("stage %q never reached: the plant did not fire", stage)
				}
				if len(res.Failures) != 1 {
					t.Fatalf("Failures = %v, want exactly one", res.Failures)
				}
				f := res.Failures[0]
				if f.Stage != stage {
					t.Errorf("failure attributed to stage %q, want %q", f.Stage, stage)
				}
				if !strings.Contains(f.Message, "injected fault") {
					t.Errorf("failure message %q does not name the injected fault", f.Message)
				}
				if f.Stack == "" {
					t.Error("failure carries no stack")
				}
				if got := rec.Count(obs.CtrPanicsRecovered); got != 1 {
					t.Errorf("panics_recovered counter = %d, want 1", got)
				}
				// Isolation: the failed group's output is discarded, never
				// replaced by something the clean run would not produce.
				for w, n := range wordSet(res) {
					if cleanWords[w] < n {
						t.Errorf("faulted run emitted word %s not in the clean run", w)
					}
				}
			})
		}
	}
}

// TestFaultFailFastSequential pins FailFast: the sequential pipeline stops at
// the first failed group instead of continuing, so a fault in the first
// group leaves no words at all.
func TestFaultFailFastSequential(t *testing.T) {
	defer guard.Reset()
	nl := bigNet(t)
	guard.Plant("match", 0)
	res := Identify(nl, Options{FailFast: true})
	if len(res.Failures) != 1 || res.Failures[0].Group != 0 {
		t.Fatalf("Failures = %v, want exactly one in group 0", res.Failures)
	}
	if len(res.Words) != 0 {
		t.Fatalf("fail-fast run after a group-0 fault emitted %d words", len(res.Words))
	}
}

// TestFaultBudgetDegradation drives every budget to an absurdly low limit
// and checks the degradation contract: the run completes without failures,
// each degraded subgroup is itemized with the right reason, the affected
// groups are counted, and the observer counter agrees.
func TestFaultBudgetDegradation(t *testing.T) {
	big := bigNet(t)
	// The trials budget only truncates a group that wants several trials;
	// the two-control-signal word net runs three.
	multiTrial, _, _, _ := wordNet(t, 4, true)
	for _, tc := range []struct {
		name    string
		nl      *netlist.Netlist
		budgets guard.Budgets
		reason  string
	}{
		{"cone-gates", big, guard.Budgets{MaxConeGates: 1}, guard.ReasonConeGates},
		{"subgroup-pairs", big, guard.Budgets{MaxSubgroupPairs: 1}, guard.ReasonSubgroupPairs},
		{"trials", multiTrial, guard.Budgets{MaxTrialsPerGroup: 1}, guard.ReasonTrials},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := tc.nl
			clean := Identify(nl, Options{})
			rec := obs.New()
			res := Identify(nl, Options{Observer: rec, Budgets: tc.budgets})
			if len(res.Failures) != 0 {
				t.Fatalf("budget run reported failures: %v", res.Failures)
			}
			if len(res.Degradations) == 0 {
				t.Fatalf("budget %+v triggered no degradations", tc.budgets)
			}
			for _, d := range res.Degradations {
				if d.Reason != tc.reason {
					t.Errorf("degradation reason %q, want %q (%s)", d.Reason, tc.reason, d)
				}
				if d.Subgroup == "" || d.Detail == "" {
					t.Errorf("degradation missing subgroup or detail: %+v", d)
				}
			}
			if res.Stats.DegradedGroups == 0 {
				t.Error("DegradedGroups = 0 with degradations present")
			}
			if got := rec.Count(obs.CtrDegradedSubgroups); got != int64(len(res.Degradations)) {
				t.Errorf("degraded_subgroups counter = %d, want %d", got, len(res.Degradations))
			}
			// Degraded mode must still be usable: the structural fallback
			// keeps emitting words rather than dropping the subgroup.
			if len(clean.Words) > 0 && len(res.Words) == 0 {
				t.Error("degraded run emitted no words at all")
			}
			// Parallel degradation must agree with sequential exactly.
			par := Identify(nl, Options{Workers: 4, Budgets: tc.budgets})
			if !reflect.DeepEqual(par.Degradations, res.Degradations) {
				t.Errorf("parallel degradations differ:\nseq %v\npar %v", res.Degradations, par.Degradations)
			}
			if !reflect.DeepEqual(par.GeneratedWords(), res.GeneratedWords()) {
				t.Error("parallel degraded words differ from sequential")
			}
		})
	}
}

// TestFaultObservationsRolledBack pins the recorder snapshot in runGroup: a
// group that panics after it has recorded trials and propagation work must
// leave nothing in the observer but the recovery count. The fault is planted
// in the verify stage of the first group that reaches it. In both paths,
// every counter and every stage's span count must equal the clean run's,
// minus what that group records when run alone, plus one panics_recovered.
func TestFaultObservationsRolledBack(t *testing.T) {
	defer guard.Reset()
	nl := bigNet(t)
	opt := Options{VerifyReduction: true}.withDefaults()
	victim, alone := -1, obs.New()
	for gi, nets := range group.Adjacent(nl, group.Options{}) {
		rec := obs.New()
		runGroup(nl, opt, gi, nets, &worker{rec: rec})
		if rec.StageSpans(obs.StageVerify) > 0 && rec.Count(obs.CtrReduceGateVisits) > 0 {
			victim, alone = gi, rec
			break
		}
	}
	if victim < 0 {
		t.Fatal("no group reaches the verify stage")
	}
	clean := obs.New()
	Identify(nl, Options{VerifyReduction: true, Observer: clean})
	for _, workers := range []int{0, 4} {
		guard.Reset()
		guard.Plant(obs.StageVerify.String(), victim)
		rec := obs.New()
		res := Identify(nl, Options{VerifyReduction: true, Workers: workers, Observer: rec})
		if len(res.Failures) != 1 || res.Failures[0].Group != victim {
			t.Fatalf("workers=%d: Failures = %v, want one in group %d", workers, res.Failures, victim)
		}
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			want := clean.Count(c) - alone.Count(c)
			if c == obs.CtrPanicsRecovered {
				want++
			}
			if got := rec.Count(c); got != want {
				t.Errorf("workers=%d: counter %s = %d, want %d", workers, c, got, want)
			}
		}
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			if got, want := rec.StageSpans(s), clean.StageSpans(s)-alone.StageSpans(s); got != want {
				t.Errorf("workers=%d: stage %s spans = %d, want %d", workers, s, got, want)
			}
		}
	}
}

package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gatewords/internal/group"
	"gatewords/internal/guard"
	"gatewords/internal/logic"
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

// TestConeBudgetOnReconvergentCone runs a subgroup whose dissimilar subtrees
// are a chain of 32 diamonds (each level the AND of a NOT and a BUF of the
// previous net), read at a depth that covers the whole chain. The chain's
// end reaches its input along 2^32 paths, so a cone walk per path would
// never return. Identify must return promptly with MaxConeGates unset, set
// below the subgroup's 101-net cone scope, and set above it. It degrades
// the subgroup in the second case and otherwise walks the chain again to
// find its end as the control signal.
func TestConeBudgetOnReconvergentCone(t *testing.T) {
	const levels = 32
	nl := netlist.New("diamonds")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	end := pi("d0")
	for i := 1; i <= levels; i++ {
		sfx := fmt.Sprint(i)
		inv, buf, and := nl.MustNet("dn"+sfx), nl.MustNet("db"+sfx), nl.MustNet("d"+sfx)
		nl.MustGate("gn"+sfx, logic.Not, inv, end)
		nl.MustGate("gb"+sfx, logic.Buf, buf, end)
		nl.MustGate("ga"+sfx, logic.And, and, inv, buf)
		end = and
	}
	notEnd := nl.MustNet("ne")
	nl.MustGate("gne", logic.Not, notEnd, end)
	a := pi("a")
	nl.MustGate("gbit0", logic.Nand, nl.MustNet("bit0"), end, a)
	nl.MustGate("gbit1", logic.Nand, nl.MustNet("bit1"), notEnd, a)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gates   int
		degrade []string
	}{
		{0, nil},
		{100, []string{"cone scope 101 nets > budget 100"}},
		{101, nil},
	} {
		done := make(chan *Result, 1)
		go func() {
			done <- Identify(nl, Options{Depth: 2*levels + 2, Budgets: guard.Budgets{MaxConeGates: tc.gates}})
		}()
		var res *Result
		select {
		case res = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("MaxConeGates %d: Identify did not return within a minute", tc.gates)
		}
		var details []string
		for _, d := range res.Degradations {
			details = append(details, d.Detail)
		}
		if !reflect.DeepEqual(details, tc.degrade) {
			t.Errorf("MaxConeGates %d: degradations %q, want %q", tc.gates, details, tc.degrade)
		}
		if found := res.FoundControlSignals; tc.degrade == nil && !reflect.DeepEqual(found, []netlist.NetID{end}) {
			t.Errorf("MaxConeGates %d: control signals %v, want the chain's end %d", tc.gates, found, end)
		}
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
		newPipeline(nl, opt, rec).runGroup(gi, nets)
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

// soloResults runs every adjacency group of nl alone, each on a worker of
// its own, and returns each group's own Result.
func soloResults(nl *netlist.Netlist, opt Options) []*Result {
	opt = opt.withDefaults()
	groups := group.Adjacent(nl, group.Options{DFFInputsOnly: opt.DFFInputsOnly})
	solos := make([]*Result, len(groups))
	for gi, nets := range groups {
		p := newPipeline(nl, opt, nil)
		out := p.runGroup(gi, nets)
		solos[gi] = p.out
		solos[gi].Stats = out.stats
		solos[gi].UsedControlSignals, solos[gi].FoundControlSignals = p.used, p.found
	}
	return solos
}

// mergeSolos concatenates the solo results of every group but skip, in
// group order: words, trace, degradations and reduction checks in sequence,
// stats summed (Interrupted or-ed, Groups the number of groups), and the
// control signals as sorted unions.
func mergeSolos(solos []*Result, skip int) *Result {
	merged := &Result{}
	used, found := map[netlist.NetID]bool{}, map[netlist.NetID]bool{}
	sum := reflect.ValueOf(&merged.Stats).Elem()
	for gi, r := range solos {
		if gi == skip {
			continue
		}
		merged.Words = append(merged.Words, r.Words...)
		merged.Trace = append(merged.Trace, r.Trace...)
		merged.Degradations = append(merged.Degradations, r.Degradations...)
		merged.ReductionChecks = append(merged.ReductionChecks, r.ReductionChecks...)
		for _, n := range r.UsedControlSignals {
			used[n] = true
		}
		for _, n := range r.FoundControlSignals {
			found[n] = true
		}
		st := reflect.ValueOf(r.Stats)
		for i := 0; i < st.NumField(); i++ {
			switch f := sum.Field(i); f.Kind() {
			case reflect.Int:
				f.SetInt(f.Int() + st.Field(i).Int())
			case reflect.Bool:
				f.SetBool(f.Bool() || st.Field(i).Bool())
			}
		}
	}
	merged.Stats.Groups = len(solos)
	merged.UsedControlSignals = sortedKeys(used)
	merged.FoundControlSignals = sortedKeys(found)
	return merged
}

func sortedKeys(set map[netlist.NetID]bool) []netlist.NetID {
	var out []netlist.NetID
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// sameOutput compares two Results in every field but Failures, with an
// empty list equal to a nil one.
func sameOutput(t *testing.T, label string, got, want *Result) {
	t.Helper()
	same := func(a, b any) bool {
		va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
		if va.Len() == 0 || vb.Len() == 0 {
			return va.Len() == vb.Len()
		}
		return reflect.DeepEqual(a, b)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"words", got.Words, want.Words},
		{"used control signals", got.UsedControlSignals, want.UsedControlSignals},
		{"found control signals", got.FoundControlSignals, want.FoundControlSignals},
		{"trace", got.Trace, want.Trace},
		{"degradations", got.Degradations, want.Degradations},
		{"reduction checks", got.ReductionChecks, want.ReductionChecks},
	} {
		if !same(f.got, f.want) {
			t.Errorf("%s: %s\n got %v\nwant %v", label, f.name, f.got, f.want)
		}
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
}

// leadNet is bigNet with one more adjacency group at its end, whose lead
// bit, a NAND3 of primary inputs, matches nothing and forms a one-bit
// subgroup that resolves to a word at once. The two bits after it are
// NAND3s that share two subtrees and differ in the third, which k = 0
// (k = NAND(p, q)) makes constant in both. It returns the lead bit.
func leadNet(t *testing.T) (*netlist.Netlist, netlist.NetID) {
	t.Helper()
	nl := bigNet(t)
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	gate := func(name string, kind logic.Kind, in ...netlist.NetID) netlist.NetID {
		out := nl.MustNet("n_" + name)
		nl.MustGate(name, kind, out, in...)
		return out
	}
	s1, s2 := pi("ls1"), pi("ls2")
	k := gate("lk", logic.Nand, pi("lp"), pi("lq"))
	var x, y, z [2]netlist.NetID
	for i := range x {
		sfx := fmt.Sprint(i)
		x[i] = gate("lx"+sfx, logic.Nand, pi("la"+sfx), s1)
		y[i] = gate("ly"+sfx, logic.Nand, pi("lb"+sfx), s2)
	}
	z[0] = gate("lz0", logic.Nand, pi("lc0"), k)
	z[1] = gate("lz1", logic.Nand, pi("lc1"), pi("lm1"), k)
	gate("lbreak", logic.Not, s1) // ends lz1's NAND3 run
	lead := gate("llead", logic.Nand, pi("lu"), pi("lv"), pi("lw"))
	for i := range x {
		gate(fmt.Sprint("lbit", i), logic.Nand, x[i], y[i], z[i])
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl, lead
}

// TestFaultGroupLeavesNothing plants a fault at each stage of leadNet's
// last group, on a traced run with VerifyReduction, sequentially and with
// workers. When a ctrlsig, trial or verify fault fires there, the group has
// already emitted its lead bit's word and recorded candidate bits,
// subgroups and trace lines, and from the trial stage on found signals and
// trials too. The run must come out exactly as the clean run with that
// group's contribution removed: the other groups' solo results merged in
// group order. The oracle is checked against the clean run first.
func TestFaultGroupLeavesNothing(t *testing.T) {
	defer guard.Reset()
	nl, lead := leadNet(t)
	opt := Options{CollectTrace: true, VerifyReduction: true}
	solos := soloResults(nl, opt)
	victim := len(solos) - 1
	if r := solos[victim]; len(r.Words) != 2 || r.Words[0].Bits[0] != lead ||
		len(r.FoundControlSignals) == 0 || r.Stats.Trials == 0 || r.Stats.ConesProved == 0 {
		t.Fatalf("last group's solo result %+v: want the lead bit's word, then a word that control signals verify", r)
	}
	want := mergeSolos(solos, victim)
	for _, workers := range []int{0, 4} {
		opt.Workers = workers
		sameOutput(t, fmt.Sprintf("workers=%d: clean run against the merged solo runs", workers),
			Identify(nl, opt), mergeSolos(solos, -1))
		for _, stage := range []string{"match", "ctrlsig", "trial", "verify"} {
			guard.Reset()
			guard.Plant(stage, victim)
			res := Identify(nl, opt)
			if guard.Planted() != 0 {
				t.Fatalf("workers=%d: the %s plant in group %d did not fire", workers, stage, victim)
			}
			if len(res.Failures) != 1 || res.Failures[0].Group != victim || res.Failures[0].Stage != stage {
				t.Fatalf("workers=%d: failures %v, want one %s-stage failure of group %d", workers, res.Failures, stage, victim)
			}
			sameOutput(t, fmt.Sprintf("workers=%d, fault at %s", workers, stage), res, want)
		}
	}
}

package gatewords

import (
	"bytes"
	"reflect"
	"testing"

	"gatewords/internal/bench"
	"gatewords/internal/eqcheck"
	"gatewords/internal/netlint"
	"gatewords/internal/obs"
	"gatewords/internal/synth"
)

// historyRun is what one design's equivalence check and semantic lint
// report: the check's results with every Stats field, its obs counters, and
// the lint JSON.
type historyRun struct {
	check    *eqcheck.NetlistResult
	counters []int64
	lint     []byte
}

// runHistoryDesign generates analog name afresh, checks it against its
// resynthesis (NAND muxes, fanin cap 2) and lints it with the semantic rules
// on.
func runHistoryDesign(t *testing.T, name string) historyRun {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("benchmark %s not registered", name)
	}
	gen, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	alt, err := gen.Resynthesize(synth.Options{MuxStyle: synth.MuxNand, MaxFanin: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	res, err := eqcheck.CheckNetlists(gen.NL, alt, nil, eqcheck.Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	var counters []int64
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		counters = append(counters, rec.Count(c))
	}
	var lint bytes.Buffer
	if err := netlint.Run(gen.NL, netlint.Config{Semantic: true}).WriteJSON(&lint); err != nil {
		t.Fatal(err)
	}
	return historyRun{check: res, counters: counters, lint: lint.Bytes()}
}

// TestOutputIndependentOfHistory holds the SAT-backed engines to "a result
// is a function of the input, nothing else": a design checked and linted
// again after other designs, in the same process, must get the same
// NetlistResult (every Stats field included), the same obs counters and the
// same lint JSON byte for byte. Solver state that outlived a call — a
// package-level solver or a pool handing out unreset engines — would make
// the repeat differ.
func TestOutputIndependentOfHistory(t *testing.T) {
	order := []string{"b15a", "b08a", "b13a", "b15a"}
	if testing.Short() {
		order = []string{"b13a", "b08a", "b13a"}
	}
	var runs []historyRun
	for _, name := range order {
		runs = append(runs, runHistoryDesign(t, name))
	}
	first, again := runs[0], runs[len(runs)-1]
	name := order[0]
	if !reflect.DeepEqual(first.check, again.check) {
		for i := range first.check.Outputs {
			if i < len(again.check.Outputs) && !reflect.DeepEqual(first.check.Outputs[i], again.check.Outputs[i]) {
				t.Fatalf("%s: output %d checked again differs:\nfirst: %+v\nagain: %+v",
					name, i, first.check.Outputs[i], again.check.Outputs[i])
			}
		}
		t.Fatalf("%s: the check's result differs when run again", name)
	}
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		if first.counters[c] != again.counters[c] {
			t.Errorf("%s: counter %s read %d, then %d when run again", name, c, first.counters[c], again.counters[c])
		}
	}
	if !bytes.Equal(first.lint, again.lint) {
		t.Errorf("%s: semantic lint JSON differs when run again", name)
	}
}

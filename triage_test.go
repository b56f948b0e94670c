package gatewords

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gatewords/internal/netlist"
)

// triageTrojan is the textual implant for the seeded-trigger test: a 3-gate
// AND cone over rare internal signals — the classic low-testability trigger.
const triageTrojan = `
  wire troj_t1, troj_t2, troj_trig;
  AND4 TROJ1 (troj_t1, U101, U103, U105, U107);
  AND4 TROJ2 (troj_t2, troj_t1, U109, U111, U113);
  AND2 TROJ3 (troj_trig, troj_t2, U115);
`

// tamperedB14a generates b14a and splices the trigger in before endmodule.
func tamperedB14a(t *testing.T) *Design {
	t.Helper()
	clean, err := GenerateBenchmark("b14a")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := clean.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(sb.String(), "endmodule", triageTrojan+"endmodule", 1)
	d, err := ParseVerilogString("b14a_tampered", tampered)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTriageSeededTrigger pins the acceptance criterion: on b14a with a
// seeded 3-gate trigger, at least one trigger gate ranks in the top-5
// suspects (in practice all three land there — the trigger's combination of
// extreme controllability cost, unobservability, and unique cone shape is
// exactly what the score measures).
func TestTriageSeededTrigger(t *testing.T) {
	rep, err := Triage(tamperedB14a(t), TriageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suspects) < 5 {
		t.Fatalf("only %d suspects", len(rep.Suspects))
	}
	found := 0
	for _, s := range rep.Suspects[:5] {
		if strings.HasPrefix(s.Gate, "TROJ") {
			found++
		}
	}
	if found == 0 {
		var names []string
		for _, s := range rep.Suspects[:5] {
			names = append(names, s.Gate)
		}
		t.Errorf("no trigger gate in top-5: %v", names)
	}
	if sev := rep.TopSeverity(); sev != "high" {
		t.Errorf("top severity = %q, want high", sev)
	}
}

// TestGoldenB14Triage pins the full b14a triage ranking against a checked-in
// golden file, and requires the JSON to be byte-identical between a
// sequential and a parallel identification run — the determinism contract of
// the whole stack. Regenerate with TRIAGE_GOLDEN_UPDATE=1.
func TestGoldenB14Triage(t *testing.T) {
	d, err := GenerateBenchmark("b14a")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) []byte {
		rep, err := Triage(d, TriageOptions{Identify: Options{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(0)
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("sequential and parallel triage differ (%d vs %d bytes)", len(seq), len(par))
	}

	golden := filepath.Join("testdata", "b14a_triage.golden.json")
	if os.Getenv("TRIAGE_GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(golden, seq, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with TRIAGE_GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(seq, want) {
		t.Errorf("b14a triage ranking drifted from golden (%d vs %d bytes); regenerate with TRIAGE_GOLDEN_UPDATE=1 and review the diff",
			len(seq), len(want))
	}
}

// TestTriageCoveredMatchesPathWalk checks the covered region against a walk
// once per path: the driver of every net that a path of fewer than depth
// levels reaches from a bit of an identified word. At depth 2 the nets
// exactly depth levels down have drivers that no shorter path covers.
func TestTriageCoveredMatchesPathWalk(t *testing.T) {
	for _, name := range []string{"b05a", "b08a"} {
		d, err := GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		nl := d.nl
		for _, depth := range []int{2, 4} {
			opt := Options{Depth: depth}
			idRep, err := Identify(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			covered := map[netlist.GateID]bool{}
			var mark func(n netlist.NetID, levels int)
			mark = func(n netlist.NetID, levels int) {
				g := nl.Net(n).Driver
				if g == netlist.NoGate || levels == 0 {
					return
				}
				covered[g] = true
				if nl.Gate(g).Kind.IsCombinational() {
					for _, in := range nl.Gate(g).Inputs {
						mark(in, levels-1)
					}
				}
			}
			for _, w := range idRep.MultiBitWords() {
				for _, bit := range w.Bits {
					if id, ok := nl.NetByName(bit); ok {
						mark(id, depth)
					}
				}
			}
			rep, err := Triage(d, TriageOptions{Identify: opt})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Covered != len(covered) {
				t.Errorf("%s depth %d: %d gates covered, the path walk covers %d", name, depth, rep.Covered, len(covered))
			}
		}
	}
}

// TestTriageObserver: the scoap/triage stages and counters thread through
// the shared Observer machinery.
func TestTriageObserver(t *testing.T) {
	d, err := GenerateBenchmark("b03a")
	if err != nil {
		t.Fatal(err)
	}
	observer := NewObserver()
	rep, err := Triage(d, TriageOptions{TopN: -1, Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(observer)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stages []struct {
			Stage string  `json:"stage"`
			MS    float64 `json:"ms"`
			Spans int64   `json:"spans"`
		} `json:"stages"`
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int64{}
	for _, s := range doc.Stages {
		spans[s.Stage] = s.Spans
	}
	if spans["scoap"] != 1 || spans["triage"] != 1 {
		t.Errorf("stage spans scoap=%d triage=%d, want 1/1", spans["scoap"], spans["triage"])
	}
	counters := map[string]int64{}
	for _, c := range doc.Counters {
		counters[c.Name] = c.Value
	}
	if counters["scoap_iterations"] <= 0 {
		t.Errorf("scoap_iterations = %d, want > 0", counters["scoap_iterations"])
	}
	if got := counters["triage_suspects"]; got != int64(len(rep.Suspects)) {
		t.Errorf("triage_suspects = %d, want %d", got, len(rep.Suspects))
	}
	// The identification stages must have been recorded through the same
	// Observer (TriageOptions.Observer overrides Identify's).
	if spans["group"] == 0 {
		t.Error("identification stages were not threaded through the Observer")
	}
}

// TestTriageTopNAndSeverity: the cap and the severity bucketing.
func TestTriageTopNAndSeverity(t *testing.T) {
	d, err := GenerateBenchmark("b03a")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Triage(d, TriageOptions{TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suspects) > 3 {
		t.Errorf("TopN=3 kept %d suspects", len(rep.Suspects))
	}
	for i := 1; i < len(rep.Suspects); i++ {
		if rep.Suspects[i].Score > rep.Suspects[i-1].Score {
			t.Errorf("suspects not sorted by score at %d", i)
		}
	}
	all, err := Triage(d, TriageOptions{TopN: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Suspects) > 0 && len(all.Suspects) < len(rep.Suspects) {
		t.Error("TopN=-1 returned fewer suspects than TopN=3")
	}
	for _, s := range all.Suspects {
		want := "low"
		switch {
		case s.Score >= 0.8:
			want = "high"
		case s.Score >= 0.5:
			want = "medium"
		}
		if s.Severity != want {
			t.Errorf("gate %s score %.4f severity %q, want %q", s.Gate, s.Score, s.Severity, want)
		}
	}
}

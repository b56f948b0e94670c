package gatewords

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"gatewords/internal/bench"
)

// updateGoldens rewrites testdata/table1_goldens.json from the current code:
//
//	go test -run TestTable1Goldens -update-goldens .
//
// Regenerate only when a change is meant to alter identification output or
// work counters, and say so in the change description.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/table1_goldens.json")

const table1GoldensPath = "testdata/table1_goldens.json"

// rowGolden is one technique's Table-1 cell at full precision.
type rowGolden struct {
	Full          int     `json:"full"`
	Partial       int     `json:"partial"`
	NotFound      int     `json:"not_found"`
	Fragmentation float64 `json:"fragmentation"`
}

// analogGolden pins everything one Table-1 analog produces: both techniques'
// rows, digests of the canonical report JSON (every word, runtime 0) and of
// the decision trace, and the observer's nonzero work counters and gauges.
// It also pins the digest of the functional matcher's report, the nonzero
// counters of a run with VerifyReduction, which proves each winning trial's
// rewritten cones, and that run's proved, refuted and undecided cone counts.
// The Base row alone leaves Base's words free to move as long as its counts
// hold, so the digest of the baseline's report pins them.
type analogGolden struct {
	Name             string           `json:"name"`
	Base             rowGolden        `json:"base"`
	Ours             rowGolden        `json:"ours"`
	ReportSHA256     string           `json:"report_sha256"`
	TraceSHA256      string           `json:"trace_sha256"`
	Counters         map[string]int64 `json:"counters"`
	Gauges           map[string]int64 `json:"gauges"`
	FunctionalSHA256 string           `json:"functional_sha256"`
	VerifyCounters   map[string]int64 `json:"verify_counters"`
	BaseSHA256       string           `json:"base_report_sha256"`
	ConesProved      int              `json:"cones_proved"`
	ConesRefuted     int              `json:"cones_refuted"`
	ConesUnknown     int              `json:"cones_unknown"`
}

func rowOf(ev Evaluation) rowGolden {
	return rowGolden{
		Full:          ev.FullyFound,
		Partial:       ev.PartiallyFound,
		NotFound:      ev.NotFound,
		Fragmentation: ev.FragmentationRate,
	}
}

// observeAnalog runs both techniques on one analog and collects its golden
// record, with the control-signal pipeline on the given worker count.
func observeAnalog(t *testing.T, d *Design, base rowGolden, workers int) analogGolden {
	t.Helper()
	o := NewObserver()
	rep, err := Identify(d, Options{Trace: true, Workers: workers, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(d, rep)
	traceSum := sha256.Sum256([]byte(strings.Join(rep.Trace, "\n")))
	counters, gauges := observed(t, o)
	return analogGolden{
		Name:         d.Name(),
		Base:         base,
		Ours:         rowOf(ev),
		ReportSHA256: reportDigest(t, d, rep, &ev),
		TraceSHA256:  hex.EncodeToString(traceSum[:]),
		Counters:     counters,
		Gauges:       gauges,
	}
}

// observeCones collects the golden fields that pin the fanin-cone consumers
// off the default path: the functional matcher's report digest and the
// counters and cone counts of a sequential VerifyReduction run.
func observeCones(t *testing.T, d *Design, g *analogGolden) {
	t.Helper()
	frep, err := IdentifyFunctional(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fev := Evaluate(d, frep)
	g.FunctionalSHA256 = reportDigest(t, d, frep, &fev)
	o := NewObserver()
	rep, err := Identify(d, Options{VerifyReduction: true, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	g.VerifyCounters, _ = observed(t, o)
	rv := rep.ReductionVerification
	g.ConesProved, g.ConesRefuted, g.ConesUnknown = rv.ConesProved, rv.ConesRefuted, rv.ConesUnknown
}

// reportDigest returns the sha256 of rep's canonical JSON (every word,
// runtime 0).
func reportDigest(t *testing.T, d *Design, rep *Report, ev *Evaluation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d, rep, ev, true, 0); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// observed returns o's nonzero counters and gauge peaks by name.
func observed(t *testing.T, o *Observer) (counters, gauges map[string]int64) {
	t.Helper()
	raw, err := o.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name string `json:"name"`
			Peak int64  `json:"peak"`
		} `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	counters, gauges = map[string]int64{}, map[string]int64{}
	for _, c := range doc.Counters {
		if c.Value != 0 {
			counters[c.Name] = c.Value
		}
	}
	for _, gg := range doc.Gauges {
		if gg.Peak != 0 {
			gauges[gg.Name] = gg.Peak
		}
	}
	return counters, gauges
}

// TestTable1Goldens is the behaviour lock for every Table-1 analog: the
// Base and Ours rows, the report and trace digests, and the observer's
// counters and gauges must match the committed goldens exactly, for a
// sequential run and for an 8-worker run. The baseline and functional report
// digests and the VerifyReduction counters and cone counts are taken from
// one sequential run each.
// b14a and the larger analogs are skipped under -short.
func TestTable1Goldens(t *testing.T) {
	var want []analogGolden
	if !*updateGoldens {
		raw, err := os.ReadFile(table1GoldensPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(bench.Profiles) {
			t.Fatalf("%s holds %d analogs, want %d", table1GoldensPath, len(want), len(bench.Profiles))
		}
	}
	var got []analogGolden
	large := false
	for i, p := range bench.Profiles {
		large = large || p.Name == "b14a"
		if large && testing.Short() && !*updateGoldens {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			d, err := GenerateBenchmark(p.Name)
			if err != nil {
				t.Fatal(err)
			}
			baseRep, err := IdentifyBaseline(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			baseEv := Evaluate(d, baseRep)
			seq := observeAnalog(t, d, rowOf(baseEv), 0)
			seq.BaseSHA256 = reportDigest(t, d, baseRep, &baseEv)
			observeCones(t, d, &seq)
			if *updateGoldens {
				got = append(got, seq)
				return
			}
			if want[i].Name != p.Name {
				t.Fatalf("golden %d is %s, want %s", i, want[i].Name, p.Name)
			}
			for _, workers := range []int{0, 8} {
				g := seq
				if workers != 0 {
					g = observeAnalog(t, d, seq.Base, workers)
					g.FunctionalSHA256, g.VerifyCounters = seq.FunctionalSHA256, seq.VerifyCounters
					g.BaseSHA256 = seq.BaseSHA256
					g.ConesProved, g.ConesRefuted, g.ConesUnknown = seq.ConesProved, seq.ConesRefuted, seq.ConesUnknown
				}
				compareGolden(t, workers, g, want[i])
			}
		})
	}
	if *updateGoldens {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(table1GoldensPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func compareGolden(t *testing.T, workers int, got, want analogGolden) {
	t.Helper()
	if got.Base != want.Base {
		t.Errorf("workers=%d: Base row %+v, want %+v", workers, got.Base, want.Base)
	}
	if got.Ours != want.Ours {
		t.Errorf("workers=%d: Ours row %+v, want %+v", workers, got.Ours, want.Ours)
	}
	if got.ReportSHA256 != want.ReportSHA256 {
		t.Errorf("workers=%d: report sha256 %s, want %s", workers, got.ReportSHA256, want.ReportSHA256)
	}
	if got.TraceSHA256 != want.TraceSHA256 {
		t.Errorf("workers=%d: trace sha256 %s, want %s", workers, got.TraceSHA256, want.TraceSHA256)
	}
	if !mapsEqual(got.Counters, want.Counters) {
		t.Errorf("workers=%d: counters %v, want %v", workers, got.Counters, want.Counters)
	}
	if !mapsEqual(got.Gauges, want.Gauges) {
		t.Errorf("workers=%d: gauges %v, want %v", workers, got.Gauges, want.Gauges)
	}
	if got.FunctionalSHA256 != want.FunctionalSHA256 {
		t.Errorf("functional report sha256 %s, want %s", got.FunctionalSHA256, want.FunctionalSHA256)
	}
	if !mapsEqual(got.VerifyCounters, want.VerifyCounters) {
		t.Errorf("VerifyReduction counters %v, want %v", got.VerifyCounters, want.VerifyCounters)
	}
	if got.BaseSHA256 != want.BaseSHA256 {
		t.Errorf("Base report sha256 %s, want %s", got.BaseSHA256, want.BaseSHA256)
	}
	if got.ConesProved != want.ConesProved || got.ConesRefuted != want.ConesRefuted || got.ConesUnknown != want.ConesUnknown {
		t.Errorf("VerifyReduction cones proved/refuted/unknown %d/%d/%d, want %d/%d/%d",
			got.ConesProved, got.ConesRefuted, got.ConesUnknown, want.ConesProved, want.ConesRefuted, want.ConesUnknown)
	}
}

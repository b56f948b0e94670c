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
type analogGolden struct {
	Name         string           `json:"name"`
	Base         rowGolden        `json:"base"`
	Ours         rowGolden        `json:"ours"`
	ReportSHA256 string           `json:"report_sha256"`
	TraceSHA256  string           `json:"trace_sha256"`
	Counters     map[string]int64 `json:"counters"`
	Gauges       map[string]int64 `json:"gauges"`
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
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d, rep, &ev, true, 0); err != nil {
		t.Fatal(err)
	}
	reportSum := sha256.Sum256(buf.Bytes())
	traceSum := sha256.Sum256([]byte(strings.Join(rep.Trace, "\n")))

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
	g := analogGolden{
		Name:         d.Name(),
		Base:         base,
		Ours:         rowOf(ev),
		ReportSHA256: hex.EncodeToString(reportSum[:]),
		TraceSHA256:  hex.EncodeToString(traceSum[:]),
		Counters:     map[string]int64{},
		Gauges:       map[string]int64{},
	}
	for _, c := range doc.Counters {
		if c.Value != 0 {
			g.Counters[c.Name] = c.Value
		}
	}
	for _, gg := range doc.Gauges {
		if gg.Peak != 0 {
			g.Gauges[gg.Name] = gg.Peak
		}
	}
	return g
}

// TestTable1Goldens is the behaviour lock for every Table-1 analog: the
// Base and Ours rows, the report and trace digests, and the observer's
// counters and gauges must match the committed goldens exactly, for a
// sequential run and for an 8-worker run. b14a and the larger analogs are
// skipped under -short.
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
			base := rowOf(Evaluate(d, baseRep))
			seq := observeAnalog(t, d, base, 0)
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
					g = observeAnalog(t, d, base, workers)
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
}

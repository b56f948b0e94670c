package bench

import (
	"math"
	"testing"

	"gatewords/internal/core"
	"gatewords/internal/refwords"
	"gatewords/internal/verilog"
)

// generateAll builds every profile once per test binary run.
var suiteCache = map[string]*Generated{}

func generated(t *testing.T, p Profile) *Generated {
	t.Helper()
	if g, ok := suiteCache[p.Name]; ok {
		return g
	}
	g, err := p.Generate()
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	suiteCache[p.Name] = g
	return g
}

func smallProfiles() []Profile {
	var out []Profile
	for _, p := range Profiles {
		if p.TargetGates <= 10000 {
			out = append(out, p)
		}
	}
	return out
}

func TestProfilesWellFormed(t *testing.T) {
	for _, p := range smallProfiles() {
		gen := generated(t, p)
		if err := gen.NL.Validate(); err != nil {
			t.Errorf("%s: invalid netlist: %v", p.Name, err)
		}
		pr, ok := PaperRowFor(p.Name)
		if !ok {
			t.Errorf("%s: no paper row", p.Name)
			continue
		}
		if len(gen.Refs) != pr.Words {
			t.Errorf("%s: %d reference words, paper has %d", p.Name, len(gen.Refs), pr.Words)
		}
		st := gen.NL.ComputeStats()
		if st.DFFs != pr.FFs {
			t.Errorf("%s: %d FFs, paper has %d", p.Name, st.DFFs, pr.FFs)
		}
		gates := st.Gates + st.DFFs
		if math.Abs(float64(gates-pr.Gates))/float64(pr.Gates) > 0.15 {
			t.Errorf("%s: %d gates vs paper %d (>15%% off)", p.Name, gates, pr.Gates)
		}
		if math.Abs(float64(gen.NL.NetCount()-pr.Nets))/float64(pr.Nets) > 0.15 {
			t.Errorf("%s: %d nets vs paper %d (>15%% off)", p.Name, gen.NL.NetCount(), pr.Nets)
		}
		bits := 0
		for _, w := range gen.Refs {
			bits += w.Size()
		}
		avg := float64(bits) / float64(len(gen.Refs))
		if math.Abs(avg-pr.AvgSize) > 0.7 {
			t.Errorf("%s: avg word size %.2f vs paper %.2f", p.Name, avg, pr.AvgSize)
		}
	}
}

// TestNeverWorseThanBase pins the paper's headline observation: on every
// benchmark, Ours fully finds at least as many words as Base and leaves at
// most as many unfound.
func TestNeverWorseThanBase(t *testing.T) {
	for _, p := range smallProfiles() {
		row := Measure(generated(t, p), core.Options{})
		if row.Ours.FullyFound < row.Base.FullyFound {
			t.Errorf("%s: ours %d full < base %d", p.Name, row.Ours.FullyFound, row.Base.FullyFound)
		}
		if row.Ours.NotFound > row.Base.NotFound {
			t.Errorf("%s: ours %d notfound > base %d", p.Name, row.Ours.NotFound, row.Base.NotFound)
		}
	}
}

// TestTableOneShape checks each measured row against the paper's row within
// coarse tolerances — the reproduction's headline claim.
func TestTableOneShape(t *testing.T) {
	for _, p := range smallProfiles() {
		pr, _ := PaperRowFor(p.Name)
		row := Measure(generated(t, p), core.Options{})
		if math.Abs(row.Base.FullyFoundPct()-pr.BaseFull) > 10 {
			t.Errorf("%s: base full %.1f vs paper %.1f", p.Name, row.Base.FullyFoundPct(), pr.BaseFull)
		}
		if math.Abs(row.Ours.FullyFoundPct()-pr.OursFull) > 10 {
			t.Errorf("%s: ours full %.1f vs paper %.1f", p.Name, row.Ours.FullyFoundPct(), pr.OursFull)
		}
		if math.Abs(row.Ours.NotFoundPct()-pr.OursNF) > 10 {
			t.Errorf("%s: ours notfound %.1f vs paper %.1f", p.Name, row.Ours.NotFoundPct(), pr.OursNF)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("b08a")
	g1, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := verilog.WriteString(g1.NL)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := verilog.WriteString(g2.NL)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("generation is not deterministic")
	}
}

func TestGeneratedVerilogRoundTrips(t *testing.T) {
	p, _ := ProfileByName("b12a")
	gen := generated(t, p)
	text, err := verilog.WriteString(gen.NL)
	if err != nil {
		t.Fatal(err)
	}
	back, err := verilog.Parse("b12a.v", text)
	if err != nil {
		t.Fatalf("generated benchmark does not re-parse: %v", err)
	}
	// The round-tripped netlist must produce identical Table-1 metrics
	// (reference words re-extracted from the parsed netlist's names).
	row1 := Measure(gen, core.Options{})
	g2 := &Generated{Profile: p, NL: back, Refs: refwords.Extract(back)}
	row2 := Measure(g2, core.Options{})
	if row1.Ours.FullyFound != row2.Ours.FullyFound || row1.Base.FullyFound != row2.Base.FullyFound {
		t.Errorf("metrics differ after round trip: %+v vs %+v", row1.Ours, row2.Ours)
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("b03"); !ok {
		t.Error("short name lookup failed")
	}
	if _, ok := ProfileByName("b03a"); !ok {
		t.Error("full name lookup failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("bogus name resolved")
	}
}

func TestPaperRowFor(t *testing.T) {
	if pr, ok := PaperRowFor("b18a"); !ok || pr.CtrlSignals != 36 {
		t.Errorf("PaperRowFor(b18a): %+v %v", pr, ok)
	}
}

func TestRunAllAndFormat(t *testing.T) {
	rows, err := RunAll([]Profile{Profiles[0], Profiles[4]}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable(rows, true)
	for _, frag := range []string{"b03a", "b08a", "Base", "Ours", "paperOurs", "avg"} {
		if !containsStr(out, frag) {
			t.Errorf("table missing %q", frag)
		}
	}
}

func containsStr(s, frag string) bool {
	return len(s) >= len(frag) && (s == frag || len(frag) == 0 || indexOf(s, frag) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

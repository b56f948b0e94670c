package scoap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gatewords/internal/bench"
)

// TestGoldenB14Scores pins the full SCOAP score dump of the generated
// b14-class benchmark against a checked-in golden file: any drift in
// transfer functions, widening, iteration order, or the generator itself
// shows up as a diff. Regenerate with SCOAP_GOLDEN_UPDATE=1.
func TestGoldenB14Scores(t *testing.T) {
	p, ok := bench.ProfileByName("b14a")
	if !ok {
		t.Fatal("benchmark b14a not registered")
	}
	gen, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r := Compute(gen.NL, Config{})
	if r.WidenedSCCs != 0 {
		t.Errorf("b14a widened %d SCCs; expected clean convergence", r.WidenedSCCs)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf, gen.NL); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "b14a_scoap.golden.txt")
	if os.Getenv("SCOAP_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with SCOAP_GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("b14a SCOAP scores drifted from golden (%d vs %d bytes); regenerate with SCOAP_GOLDEN_UPDATE=1 and review the diff",
			buf.Len(), len(want))
	}
}

// TestB15aConverges requires the b15-class benchmark, whose score dump is
// too large to pin as a golden, to reach its fixed point without widening
// any SCC.
func TestB15aConverges(t *testing.T) {
	p, ok := bench.ProfileByName("b15a")
	if !ok {
		t.Fatal("benchmark b15a not registered")
	}
	gen, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r := Compute(gen.NL, Config{})
	if r.WidenedSCCs != 0 {
		t.Errorf("b15a widened %d SCCs; expected clean convergence", r.WidenedSCCs)
	}
	if r.Iterations <= 0 {
		t.Errorf("b15a took %d iterations, want > 0", r.Iterations)
	}
	t.Logf("b15a: %d iterations, %d widened SCCs", r.Iterations, r.WidenedSCCs)
}

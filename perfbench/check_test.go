package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNormalizeReportIgnoresRuntimeAndIndent(t *testing.T) {
	a := []byte("{\n  \"module\": \"m\",\n  \"words\": [],\n  \"runtime_seconds\": 0.125,\n  \"interrupted\": true\n}\n")
	var b bytes.Buffer
	if err := json.Indent(&b, []byte(`{"module":"m","words":[],"runtime_seconds":3,"interrupted":true}`), "    ", "\t"); err != nil {
		t.Fatal(err)
	}
	na, err := normalizeReport(a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := normalizeReport(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"module":"m","words":[],"runtime_seconds":0,"interrupted":true}`
	if string(na) != want || string(nb) != want {
		t.Fatalf("normalized to %s and %s, want %s", na, nb, want)
	}
}

// A corrupted report must fail the op check and lower ok_frac through the
// same loop and accounting the benchmark runs.
func TestCorruptedReportLowersOkFrac(t *testing.T) {
	d, err := generate(designSpec{profile: "b14a", name: "b14a_test", seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	good, err := pipelineOp(&d, -1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := reportHash(good.report)
	if err != nil {
		t.Fatal(err)
	}
	ref := &pipeRef{hash: h, fingerprint: good.fingerprint}
	okFrac := func(corruptOp int) float64 {
		out := &outcome{}
		run := func(op, _ int, _ *tracer) (pipeResult, error) {
			r := good
			if op == corruptOp {
				r.report = corrupt(good.report, "bits")
			}
			time.Sleep(5 * time.Millisecond)
			return r, nil
		}
		check := func(_, _ int, _ *tracer, r pipeResult) error { return verifyPipeline("b14a", ref, r) }
		st, err := closedLoop(config{seconds: 0.1}, out, nil, 1, run, check)
		if err != nil {
			t.Fatal(err)
		}
		endToEnd(out, 1, st.all, st.lat, 1, st.maxRSSKB, st.attempted-st.failed, 62.5)
		return out.metrics["ok_frac"].Value
	}
	if got := okFrac(-2); got != 1 {
		t.Fatalf("ok_frac of clean ops = %v, want 1", got)
	}
	if got := okFrac(3); got >= 1 {
		t.Fatalf("ok_frac with one corrupted report = %v, want < 1", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 0.9); q < 3.69 || q > 3.71 {
		t.Fatalf("p90 = %v, want 3.7", q)
	}
	if n := beyond(xs, 0.5); n != 2 {
		t.Fatalf("beyond median = %d, want 2", n)
	}
}

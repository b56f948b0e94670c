package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilRecorderIsSafe pins the zero-cost-when-nil contract: every method
// of a nil *Recorder must be a no-op, not a panic — the pipeline threads the
// recorder unconditionally and relies on this.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	sp := r.Start(StageTrial)
	sp.End()
	r.Add(CtrTrials, 3)
	r.Max(GaugeReduceQueue, 9)
	r.Merge(New())
	New().Merge(r)
	ran := false
	r.Do(context.Background(), StageMatch, func() { ran = true })
	if !ran {
		t.Fatal("Do on nil recorder must still run fn")
	}
	if r.StageNS(StageTrial) != 0 || r.Count(CtrTrials) != 0 || r.GaugeValue(GaugeReduceQueue) != 0 || r.TotalNS() != 0 {
		t.Fatal("nil recorder accessors must return 0")
	}
	// encoding/json renders a nil Marshaler pointer as null without calling
	// the method; direct callers (the facade) still get the zero document.
	if data, err := r.MarshalJSON(); err != nil || !bytes.Contains(data, []byte(`"stages"`)) {
		t.Fatalf("nil recorder must marshal to the zero document: %s, %v", data, err)
	}
}

func TestSpansCountersGauges(t *testing.T) {
	r := New()
	sp := r.Start(StageTrial)
	time.Sleep(time.Millisecond)
	sp.End()
	if r.StageNS(StageTrial) <= 0 {
		t.Fatal("span recorded no time")
	}
	if r.StageSpans(StageTrial) != 1 {
		t.Fatalf("spans = %d, want 1", r.StageSpans(StageTrial))
	}
	r.Add(CtrTrials, 2)
	r.Add(CtrTrials, 3)
	if r.Count(CtrTrials) != 5 {
		t.Fatalf("counter = %d, want 5", r.Count(CtrTrials))
	}
	r.Max(GaugeSubgroupBits, 4)
	r.Max(GaugeSubgroupBits, 2) // lower value must not regress the peak
	if r.GaugeValue(GaugeSubgroupBits) != 4 {
		t.Fatalf("gauge = %d, want 4", r.GaugeValue(GaugeSubgroupBits))
	}
}

func TestDoLabelsAndTimes(t *testing.T) {
	r := New()
	if r.ProfileLabelsEnabled() {
		t.Fatal("profile labels must be off by default (pprof.Do allocates per span)")
	}
	ran := false
	r.Do(nil, StageCtrlSig, func() { ran = true }) //nolint:staticcheck // nil ctx is part of the contract
	if !ran {
		t.Fatal("fn did not run")
	}
	if r.StageSpans(StageCtrlSig) != 1 {
		t.Fatalf("Do must record exactly one span, got %d", r.StageSpans(StageCtrlSig))
	}
	// With labels enabled the pprof.Do path must still run fn and record one
	// span per region (label application itself is the stdlib's contract).
	r.EnableProfileLabels()
	if !r.ProfileLabelsEnabled() {
		t.Fatal("EnableProfileLabels did not stick")
	}
	r.Do(nil, StageCtrlSig, func() { ran = true }) //nolint:staticcheck
	if r.StageSpans(StageCtrlSig) != 2 {
		t.Fatalf("labeled Do must record a span, got %d", r.StageSpans(StageCtrlSig))
	}
	var nilRec *Recorder
	nilRec.EnableProfileLabels() // must not panic
	if nilRec.ProfileLabelsEnabled() {
		t.Fatal("nil recorder reports labels enabled")
	}
}

func TestMergeSumsAndMaxes(t *testing.T) {
	a, b := New(), New()
	a.stageNS[StageMatch] = 10
	a.stageSpans[StageMatch] = 1
	b.stageNS[StageMatch] = 5
	b.stageSpans[StageMatch] = 2
	a.Add(CtrReductions, 7)
	b.Add(CtrReductions, 4)
	a.Max(GaugeReduceQueue, 3)
	b.Max(GaugeReduceQueue, 8)
	a.Merge(b)
	if a.StageNS(StageMatch) != 15 || a.StageSpans(StageMatch) != 3 {
		t.Fatalf("merged stage = %d ns / %d spans", a.StageNS(StageMatch), a.StageSpans(StageMatch))
	}
	if a.Count(CtrReductions) != 11 {
		t.Fatalf("merged counter = %d, want 11", a.Count(CtrReductions))
	}
	if a.GaugeValue(GaugeReduceQueue) != 8 {
		t.Fatalf("merged gauge = %d, want 8", a.GaugeValue(GaugeReduceQueue))
	}
}

// TestCloneIsIndependent pins the snapshot contract: a clone carries the
// source's exact state, and neither side observes later writes to the other.
func TestCloneIsIndependent(t *testing.T) {
	if (*Recorder)(nil).Clone() != nil {
		t.Fatal("Clone of nil recorder should be nil")
	}
	r := New()
	r.stageNS[StageTrial] = 100
	r.stageSpans[StageTrial] = 1
	r.Add(CtrTrials, 5)
	r.Max(GaugeSubgroupBits, 9)
	r.EnableProfileLabels()
	c := r.Clone()
	if c.StageNS(StageTrial) != 100 || c.Count(CtrTrials) != 5 || c.GaugeValue(GaugeSubgroupBits) != 9 {
		t.Fatalf("clone lost state: %d ns, %d trials, %d gauge",
			c.StageNS(StageTrial), c.Count(CtrTrials), c.GaugeValue(GaugeSubgroupBits))
	}
	if !c.ProfileLabelsEnabled() {
		t.Error("clone lost the profile-labels flag")
	}
	r.Add(CtrTrials, 1)
	c.Add(CtrTrials, 10)
	if r.Count(CtrTrials) != 6 || c.Count(CtrTrials) != 15 {
		t.Errorf("clone aliases source: r=%d c=%d", r.Count(CtrTrials), c.Count(CtrTrials))
	}
}

// TestJSONDeterministic pins byte-identical rendering for equal recorders —
// the property the goldens (TestTable1Goldens, TestCheckNetlistsGoldens)
// rely on.
func TestJSONDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New()
		r.stageNS[StageTrial] = 1_234_567
		r.stageSpans[StageTrial] = 2
		r.Add(CtrSATConflicts, 42)
		r.Max(GaugeControlSignals, 6)
		return r
	}
	a, _ := json.Marshal(build())
	b, _ := json.Marshal(build())
	if !bytes.Equal(a, b) {
		t.Fatalf("non-deterministic JSON:\n%s\n%s", a, b)
	}
	for _, want := range []string{`"stage":"group"`, `"name":"sat_conflicts"`, `"value":42`, `"name":"max_control_signals"`, `"peak":6`, `"ms":1.235`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("JSON missing %s:\n%s", want, a)
		}
	}
}

func TestWriteTextAndStageLine(t *testing.T) {
	r := New()
	r.stageNS[StageMatch] = 2_000_000
	r.stageSpans[StageMatch] = 4
	r.Add(CtrTrials, 9)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stage   match", "counter trials", "gauge   max_reduce_queue", "(4 spans)"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	line := r.StageLine()
	if !strings.Contains(line, "match=2.0ms") || !strings.Contains(line, "verify=0.0ms") {
		t.Errorf("StageLine = %q", line)
	}
}

// TestEnumNames checks that every Stage, Counter and Gauge below its Num*
// bound has a distinct, non-empty name, and that the recorder's JSON lists
// each enum in order.
func TestEnumNames(t *testing.T) {
	if StageCtrlSig.String() != "ctrlsig" || Stage(200).String() != "Stage(200)" {
		t.Error("stage names")
	}
	if CtrReduceGateVisits.String() != "reduce_gate_visits" || Counter(200).String() != "Counter(200)" {
		t.Error("counter names")
	}
	if GaugeSubgroupBits.String() != "max_subgroup_bits" || Gauge(200).String() != "Gauge(200)" {
		t.Error("gauge names")
	}
	raw, err := json.Marshal(New())
	if err != nil {
		t.Fatal(err)
	}
	var doc recorderJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Stages) != int(NumStages) || len(doc.Counters) != int(NumCounters) || len(doc.Gauges) != int(NumGauges) {
		t.Fatalf("JSON lists %d stages, %d counters, %d gauges; want %d, %d, %d",
			len(doc.Stages), len(doc.Counters), len(doc.Gauges), NumStages, NumCounters, NumGauges)
	}
	seen := make(map[string]bool)
	check := func(kind string, i int, name, rendered string) {
		if name == "" || seen[kind+"/"+name] {
			t.Errorf("%s %d: name %q is empty or repeated", kind, i, name)
		}
		seen[kind+"/"+name] = true
		if rendered != name {
			t.Errorf("JSON %s %d = %q, want %q (enum order)", kind, i, rendered, name)
		}
	}
	for s := Stage(0); s < NumStages; s++ {
		check("stage", int(s), s.String(), doc.Stages[s].Stage)
	}
	for c := Counter(0); c < NumCounters; c++ {
		check("counter", int(c), c.String(), doc.Counters[c].Name)
	}
	for g := Gauge(0); g < NumGauges; g++ {
		check("gauge", int(g), g.String(), doc.Gauges[g].Name)
	}
}

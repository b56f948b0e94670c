// Package obs is the pipeline's observability layer: a lightweight,
// allocation-conscious Recorder that attributes wall time, work counters, and
// peak gauges to the identification stages of DAC'15 Figure 2 (adjacency
// grouping → cone matching → control-signal discovery → trial/reduce loop →
// reduction verification).
//
// The design contract is zero cost when disabled: every method is safe on a
// nil *Recorder and returns before touching the clock, so the hot path pays
// one nil check and nothing else (pinned by BenchmarkObserverOff against
// BenchmarkObserverOn at the module root). When enabled, a Recorder is a
// couple of fixed arrays — no maps, no locks — so one recorder per worker is
// cheap and recorders merge deterministically: Merge adds sums and keeps
// maxima, so the parallel pipeline's per-worker recorders merge to the same
// totals in any order. Being a fixed-size value, a Recorder is also its own
// snapshot: the pipeline copies a worker's recorder before each group and
// restores the copy if the group panics.
//
// Stage regions can additionally be labeled for CPU profiling: after
// EnableProfileLabels, Do wraps each region in runtime/pprof.Do with a
// "stage" label so `go tool pprof -tagfocus` splits profile samples by
// pipeline stage. Labeling is off by default because pprof.Do allocates a
// label set and context per call — fine for the handful of regions a profile
// run cares about, too hot for the thousands of match spans a large netlist
// produces when nobody is profiling.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// Stage identifies one pipeline stage for span accounting.
type Stage uint8

// The pipeline stages, in execution order. NumStages bounds the enum.
const (
	// StageGroup is first-level adjacency grouping (§2.2).
	StageGroup Stage = iota
	// StageMatch is cone building and full/partial subgroup matching (§2.3).
	StageMatch
	// StageCtrlSig is control-signal discovery in dissimilar subtrees (§2.4).
	StageCtrlSig
	// StageTrial is the assignment trial / reduce / re-match loop (§2.5).
	StageTrial
	// StageVerify is cone-equivalence verification of winning reductions.
	StageVerify
	// StageScoap is the SCOAP testability fixed point (internal/scoap),
	// run by netlint NL5xx rules and by triage.
	StageScoap
	// StageTriage is suspect scoring and ranking (gatewords.Triage).
	StageTriage

	NumStages
)

var stageNames = [NumStages]string{"group", "match", "ctrlsig", "trial", "verify", "scoap", "triage"}

// String names the stage ("group", "match", "ctrlsig", "trial", "verify",
// "scoap", "triage").
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Counter identifies one monotonically accumulated work counter.
type Counter uint8

// The work counters. NumCounters bounds the enum.
const (
	// CtrTrials counts assignment trials attempted: control assignments
	// propagated, feasible or not.
	CtrTrials Counter = iota
	// CtrReductions counts feasible trials (propagation without conflict).
	CtrReductions
	// CtrReduceGateVisits counts gate evaluations during constant
	// propagation. A §2.5 trial evaluates only gates whose output lies in
	// its region, the combinational fanin of its bits and assigned nets.
	CtrReduceGateVisits
	// CtrEqChecks counts equivalence/satisfiability queries issued.
	CtrEqChecks
	// CtrSimRounds counts 64-pattern random-simulation rounds in eqcheck.
	CtrSimRounds
	// CtrSATDecisions counts SAT solver decisions.
	CtrSATDecisions
	// CtrSATPropagations counts SAT solver unit propagations.
	CtrSATPropagations
	// CtrSATConflicts counts SAT solver conflicts (the SAT budget's
	// currency).
	CtrSATConflicts
	// CtrSATRetries counts eqcheck retry-ladder escalations: SAT stages rerun
	// with a doubled conflict budget after an Unknown verdict.
	CtrSATRetries
	// CtrPanicsRecovered counts group pipelines that panicked and were
	// converted into GroupFailure records (see internal/guard). A failed
	// group's observations are rolled back, so this counter is the only
	// observation it contributes.
	CtrPanicsRecovered
	// CtrDegradedSubgroups counts subgroups degraded to the full-structural
	// match because a resource budget was exceeded (see guard.Budgets).
	CtrDegradedSubgroups
	// CtrScoapIterations counts worklist relaxations of the SCOAP fixed point.
	CtrScoapIterations
	// CtrScoapWidenedSCCs counts combinational SCCs widened to ∞ because the
	// SCOAP relaxation budget ran out before convergence.
	CtrScoapWidenedSCCs
	// CtrTriageSuspects counts suspects emitted by gatewords.Triage.
	CtrTriageSuspects
	// CtrSATLearned counts clauses learned by CDCL conflict analysis.
	CtrSATLearned
	// CtrSATRestarts counts CDCL restarts (Luby sequence).
	CtrSATRestarts
	// CtrSATAssumpSolves counts incremental assumption solves on a warm
	// solver (Solver.SolveUnder), as opposed to from-scratch encodings.
	CtrSATAssumpSolves
	// CtrSATModelsRejected counts SAT models that failed re-simulation
	// against the AIG — each one is a solver bug surfaced instead of a
	// silently degraded Unknown.
	CtrSATModelsRejected

	NumCounters
)

var counterNames = [NumCounters]string{
	"trials", "reductions", "reduce_gate_visits", "eq_checks",
	"sim_rounds", "sat_decisions", "sat_propagations", "sat_conflicts",
	"sat_retries", "panics_recovered", "degraded_subgroups",
	"scoap_iterations", "scoap_widened_sccs", "triage_suspects",
	"sat_learned_clauses", "sat_restarts", "sat_assumption_solves",
	"sat_models_rejected",
}

// String names the counter.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", uint8(c))
}

// Gauge identifies one high-watermark gauge (Max keeps the peak).
type Gauge uint8

// The gauges. NumGauges bounds the enum.
const (
	// GaugeSubgroupBits is the widest subgroup resolved (bits).
	GaugeSubgroupBits Gauge = iota
	// GaugeControlSignals is the most control signals found for one subgroup.
	GaugeControlSignals
	// GaugeReduceQueue is the deepest constant-propagation worklist; in a
	// §2.5 trial it holds only nets of the trial's region.
	GaugeReduceQueue

	NumGauges
)

var gaugeNames = [NumGauges]string{"max_subgroup_bits", "max_control_signals", "max_reduce_queue"}

// String names the gauge.
func (g Gauge) String() string {
	if g < NumGauges {
		return gaugeNames[g]
	}
	return fmt.Sprintf("Gauge(%d)", uint8(g))
}

// Recorder accumulates per-stage spans, counters, and gauges. The zero value
// is ready to use; a nil *Recorder is a valid no-op sink on every method.
// A Recorder is not goroutine-safe: give each worker its own and Merge.
type Recorder struct {
	stageNS    [NumStages]int64
	stageSpans [NumStages]int64
	counters   [NumCounters]int64
	gauges     [NumGauges]int64
	labels     bool // Do also applies pprof stage labels (EnableProfileLabels)
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// EnableProfileLabels makes Do wrap each region in runtime/pprof.Do with a
// stage=<name> goroutine label, attributing CPU-profile samples to pipeline
// stages. Enable it only while a CPU profile is being taken: each labeled
// region allocates a label set and context.
func (r *Recorder) EnableProfileLabels() {
	if r == nil {
		return
	}
	r.labels = true
}

// ProfileLabelsEnabled reports whether Do applies pprof labels (false on nil).
func (r *Recorder) ProfileLabelsEnabled() bool { return r != nil && r.labels }

// Span is an open stage timer from Start. The zero Span (from a nil
// Recorder) is a no-op.
type Span struct {
	r     *Recorder
	stage Stage
	start time.Time
}

// Start opens a span attributing wall time to stage s until End.
func (r *Recorder) Start(s Stage) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, stage: s, start: time.Now()}
}

// End closes the span, adding its duration to the stage. time.Time carries a
// monotonic reading, so the difference is immune to wall-clock steps.
func (sp Span) End() {
	if sp.r == nil {
		return
	}
	sp.r.stageNS[sp.stage] += int64(time.Since(sp.start))
	sp.r.stageSpans[sp.stage]++
}

// Do runs fn as one span of stage s. After EnableProfileLabels it also
// labels the goroutine with pprof label stage=s for the duration, so
// CPU-profile samples attribute to the stage. With a nil Recorder fn runs
// directly — no clock, no labels.
func (r *Recorder) Do(ctx context.Context, s Stage, fn func()) {
	if r == nil {
		fn()
		return
	}
	sp := r.Start(s)
	if r.labels {
		if ctx == nil {
			ctx = context.Background()
		}
		pprof.Do(ctx, pprof.Labels("stage", s.String()), func(context.Context) { fn() })
	} else {
		fn()
	}
	sp.End()
}

// Add accumulates n into counter c.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c] += n
}

// Max raises gauge g to v if v is the new peak.
func (r *Recorder) Max(g Gauge, v int64) {
	if r == nil || v <= r.gauges[g] {
		return
	}
	r.gauges[g] = v
}

// Clone returns an independent copy of the recorder's current state — the
// snapshot primitive behind serving live observability (a server holds its
// aggregate recorder under a lock, clones it, and renders the clone outside
// the lock). Cloning nil returns nil, which every Recorder method accepts.
func (r *Recorder) Clone() *Recorder {
	if r == nil {
		return nil
	}
	c := *r // the state is fixed-size arrays; shallow copy is a deep copy
	return &c
}

// Merge folds o into r: stage times, span counts, and counters add; gauges
// keep the maximum. Merging nil (either side nil) is a no-op.
func (r *Recorder) Merge(o *Recorder) {
	if r == nil || o == nil {
		return
	}
	for i := range r.stageNS {
		r.stageNS[i] += o.stageNS[i]
		r.stageSpans[i] += o.stageSpans[i]
	}
	for i := range r.counters {
		r.counters[i] += o.counters[i]
	}
	for i := range r.gauges {
		if o.gauges[i] > r.gauges[i] {
			r.gauges[i] = o.gauges[i]
		}
	}
}

// StageNS returns the accumulated nanoseconds of stage s (0 on nil).
func (r *Recorder) StageNS(s Stage) int64 {
	if r == nil {
		return 0
	}
	return r.stageNS[s]
}

// StageSpans returns the number of closed spans of stage s (0 on nil).
func (r *Recorder) StageSpans(s Stage) int64 {
	if r == nil {
		return 0
	}
	return r.stageSpans[s]
}

// Count returns the value of counter c (0 on nil).
func (r *Recorder) Count(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c]
}

// GaugeValue returns the peak of gauge g (0 on nil).
func (r *Recorder) GaugeValue(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g]
}

// TotalNS returns the sum of all stage times.
func (r *Recorder) TotalNS() int64 {
	if r == nil {
		return 0
	}
	var t int64
	for _, ns := range r.stageNS {
		t += ns
	}
	return t
}

// stageJSON / counterJSON / gaugeJSON are the rendered snapshot rows. Slices
// in enum order (not maps) keep the encoding byte-deterministic.
type stageJSON struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
	Spans int64   `json:"spans"`
}

type counterJSON struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type gaugeJSON struct {
	Name string `json:"name"`
	Peak int64  `json:"peak"`
}

type recorderJSON struct {
	Stages   []stageJSON   `json:"stages"`
	Counters []counterJSON `json:"counters"`
	Gauges   []gaugeJSON   `json:"gauges"`
}

func (r *Recorder) snapshot() recorderJSON {
	var doc recorderJSON
	for s := Stage(0); s < NumStages; s++ {
		doc.Stages = append(doc.Stages, stageJSON{
			Stage: s.String(),
			MS:    round3(float64(r.StageNS(s)) / 1e6),
			Spans: r.StageSpans(s),
		})
	}
	for c := Counter(0); c < NumCounters; c++ {
		doc.Counters = append(doc.Counters, counterJSON{Name: c.String(), Value: r.Count(c)})
	}
	for g := Gauge(0); g < NumGauges; g++ {
		doc.Gauges = append(doc.Gauges, gaugeJSON{Name: g.String(), Peak: r.GaugeValue(g)})
	}
	return doc
}

func round3(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}

// MarshalJSON renders the recorder deterministically: stages, counters, and
// gauges as arrays in enum order, times in (rounded) milliseconds. A nil
// recorder renders as the all-zero document.
func (r *Recorder) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.snapshot())
}

// WriteText renders an aligned human-readable breakdown.
func (r *Recorder) WriteText(w io.Writer) error {
	doc := r.snapshot()
	total := float64(r.TotalNS()) / 1e6
	for _, s := range doc.Stages {
		pctOf := 0.0
		if total > 0 {
			pctOf = 100 * s.MS / total
		}
		if _, err := fmt.Fprintf(w, "stage   %-8s %10.3fms %5.1f%%  (%d spans)\n",
			s.Stage, s.MS, pctOf, s.Spans); err != nil {
			return err
		}
	}
	for _, c := range doc.Counters {
		if _, err := fmt.Fprintf(w, "counter %-20s %12d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range doc.Gauges {
		if _, err := fmt.Fprintf(w, "gauge   %-20s %12d\n", g.Name, g.Peak); err != nil {
			return err
		}
	}
	return nil
}

// StageLine renders the stage split on one line, for table footnotes:
// "group=0.1ms match=2.3ms ctrlsig=0.4ms trial=8.9ms verify=0ms".
func (r *Recorder) StageLine() string {
	var sb strings.Builder
	for s := Stage(0); s < NumStages; s++ {
		if s > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%.1fms", s, float64(r.StageNS(s))/1e6)
	}
	return sb.String()
}

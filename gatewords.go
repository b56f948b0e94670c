// Package gatewords identifies words — groups of wires that belong to the
// same multi-bit register or bus — in a flattened gate-level netlist, the
// first step of netlist reverse engineering and Hardware-Trojan triage. It
// implements the DAC 2015 technique of Tashjian & Davoodi, "On Using Control
// Signals for Word-Level Identification in A Gate-Level Netlist":
// partially-matching fanin-cone structures are reconciled by discovering
// relevant control signals inside their dissimilar subtrees, assigning them
// controlling values, and constant-propagating the circuit until the cones
// become fully similar. A shape-hashing baseline (WordRev-style) is included
// for comparison, along with the benchmark generators and harness that
// regenerate the paper's Table 1.
//
// Typical use:
//
//	d, err := gatewords.ParseVerilogFile("design.v")
//	rep, err := gatewords.Identify(d, gatewords.Options{})
//	for _, w := range rep.Words { fmt.Println(w.Bits, w.ControlSignals) }
//
// The facade exposes only strings (net names); the internal graph,
// hash-key, and reduction machinery live under internal/.
package gatewords

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"gatewords/internal/bench"
	"gatewords/internal/core"
	"gatewords/internal/functional"
	"gatewords/internal/guard"
	"gatewords/internal/logic"
	"gatewords/internal/metrics"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
	"gatewords/internal/reduce"
	"gatewords/internal/refwords"
	"gatewords/internal/shapehash"
	"gatewords/internal/verilog"
)

// Design is a loaded gate-level netlist.
type Design struct {
	nl *netlist.Netlist
}

// ParseVerilog parses a flattened structural-Verilog module from r; name is
// used in error messages.
func ParseVerilog(name string, r io.Reader) (*Design, error) {
	nl, err := verilog.ParseReader(name, r)
	if err != nil {
		return nil, err
	}
	return &Design{nl: nl}, nil
}

// ParseVerilogFile parses the module in the named file.
func ParseVerilogFile(path string) (*Design, error) {
	nl, err := verilog.ParseFile(path)
	if err != nil {
		return nil, err
	}
	return &Design{nl: nl}, nil
}

// ParseVerilogString parses a module held in a string.
func ParseVerilogString(name, src string) (*Design, error) {
	nl, err := verilog.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return &Design{nl: nl}, nil
}

// ParseVerilogHierarchy parses a multi-module source and flattens it: the
// top module (auto-detected as the one no other module instantiates, unless
// top is non-empty) has every sub-module instance inlined recursively with
// "<instance>/" name prefixing. This is the front door for third-party
// netlists that still carry hierarchy.
func ParseVerilogHierarchy(name, src, top string) (*Design, error) {
	lib, err := verilog.ParseHierarchy(nil, name, src)
	if err != nil {
		return nil, err
	}
	if top == "" {
		top, err = lib.Top()
		if err != nil {
			return nil, err
		}
	}
	nl, err := lib.Elaborate(top)
	if err != nil {
		return nil, err
	}
	return &Design{nl: nl}, nil
}

// WriteVerilog emits the design as structural Verilog.
func (d *Design) WriteVerilog(w io.Writer) error { return verilog.Write(w, d.nl) }

// WriteVerilogFile writes the design to a file.
func (d *Design) WriteVerilogFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := verilog.Write(f, d.nl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteDOT renders the design as a Graphviz digraph.
func (d *Design) WriteDOT(w io.Writer) error { return d.nl.WriteDOT(w) }

// Name returns the module name.
func (d *Design) Name() string { return d.nl.Name }

// Fingerprint returns a canonical content hash of the design as 32 hex
// digits: equal for two designs exactly when they hold the same nets and
// gates, regardless of declaration order; gate instance names are ignored.
// wordidd keys its poison-input breaker on it. It is not a report key:
// Identify reads declaration order, so designs with one fingerprint can
// have different reports.
func (d *Design) Fingerprint() string { return d.nl.Fingerprint() }

// Stats summarizes the design.
type Stats struct {
	Nets  int
	Gates int // combinational gates
	DFFs  int
	PIs   int
	POs   int
}

// Stats returns design statistics.
func (d *Design) Stats() Stats {
	s := d.nl.ComputeStats()
	return Stats{Nets: s.Nets, Gates: s.Gates, DFFs: s.DFFs, PIs: s.PIs, POs: s.POs}
}

// ReferenceWord is a golden word recovered from preserved register names on
// flip-flop outputs (the evaluation methodology of the paper's §3).
type ReferenceWord struct {
	Name string
	Bits []string // D-input net names, LSB first
}

// ReferenceWords extracts the golden reference words (registers of at least
// two bits whose output nets carry a name and bit index).
func (d *Design) ReferenceWords() []ReferenceWord {
	refs := refwords.Extract(d.nl)
	out := make([]ReferenceWord, len(refs))
	for i, r := range refs {
		rw := ReferenceWord{Name: r.Name, Bits: make([]string, len(r.Bits))}
		for j, b := range r.Bits {
			rw.Bits[j] = d.nl.NetName(b)
		}
		out[i] = rw
	}
	return out
}

// Options configures Identify. The zero value reproduces the paper's
// settings: cone depth 4, at most two simultaneous control assignments, and
// cohesive partial-group emission.
type Options struct {
	// Depth is the fanin-cone analysis depth in logic levels (default 4).
	Depth int
	// MaxAssign bounds simultaneous control-signal assignments (default 2;
	// 3 enables the paper's future-work extension).
	MaxAssign int
	// Theta is the cohesion threshold for emitting partially matching
	// subgroups as unverified words (default 0.5).
	Theta float64
	// DisablePartialGroups turns the cohesion rule off (ablation).
	DisablePartialGroups bool
	// DFFInputsOnly restricts candidate bits to flip-flop D inputs.
	DFFInputsOnly bool
	// Trace records the pipeline's per-subgroup decisions in Report.Trace.
	Trace bool
	// Workers processes adjacency groups concurrently (0/1 sequential,
	// negative = GOMAXPROCS); the result is identical to a sequential run.
	Workers int
	// Lint gates the pipeline on the static-analysis pass (internal/netlint):
	// LintLenient refuses error-severity diagnostics, LintStrict also refuses
	// warnings. The default LintOff preserves historical behavior.
	Lint LintMode
	// VerifyReduction proves, with the AIG + SAT equivalence checker, that
	// every control-signal reduction backing an emitted word rewrote each
	// bit's cone soundly. Outcomes appear in Report.ReductionVerification.
	VerifyReduction bool
	// Context, when non-nil, bounds the run: cancellation or deadline expiry
	// is honored cooperatively at group, subgroup, and trial granularity.
	// An interrupted run still returns a Report — the words completed so far,
	// never a truncated word — with Report.Interrupted set.
	Context context.Context
	// Observer, when non-nil, collects per-stage wall times, work counters,
	// and peak gauges across the run (and across runs, if reused). Leaving
	// it nil costs nothing on the identification hot path.
	Observer *Observer
	// Budgets bounds per-group pipeline work; a subgroup that exceeds a
	// budget degrades to the cheap full-structural match and is itemized in
	// Report.Degradations instead of stalling or aborting the run. The zero
	// value is unlimited.
	Budgets Budgets
	// FailFast stops the run at the first group whose pipeline panicked
	// (recovered into Report.Failures) instead of isolating the failure and
	// continuing. Words from groups completed before the failure are kept.
	FailFast bool
}

// Budgets caps per-group pipeline work. Each limit guards one blow-up mode
// of a hostile or degenerate input; zero fields are unlimited. Exceeding a
// limit never aborts the run: the affected subgroup keeps its full-structural
// word classes (the shape-hashing baseline's answer) and the event is
// recorded in Report.Degradations.
type Budgets struct {
	// MaxConeGates caps one subgroup's fanin-cone scope in nets.
	MaxConeGates int
	// MaxSubgroupPairs caps one subgroup's matching cross product
	// (bits × dissimilar subtrees).
	MaxSubgroupPairs int
	// MaxTrialsPerGroup caps control-assignment trials across one adjacency
	// group.
	MaxTrialsPerGroup int
}

func (o Options) toCore() core.Options {
	return core.Options{
		Depth:           o.Depth,
		MaxAssign:       o.MaxAssign,
		Theta:           o.Theta,
		NoPartialGroups: o.DisablePartialGroups,
		DFFInputsOnly:   o.DFFInputsOnly,
		CollectTrace:    o.Trace,
		Workers:         o.Workers,
		VerifyReduction: o.VerifyReduction,
		Context:         o.Context,
		// Observer is deliberately absent: Identify hands core a private
		// per-run recorder and folds it into Options.Observer once, under
		// the Observer's lock, so one Observer can be shared by concurrent
		// Identify calls (see newRunRecorder / absorb).
		Budgets: guard.Budgets{
			MaxConeGates:      o.Budgets.MaxConeGates,
			MaxSubgroupPairs:  o.Budgets.MaxSubgroupPairs,
			MaxTrialsPerGroup: o.Budgets.MaxTrialsPerGroup,
		},
		FailFast: o.FailFast,
	}
}

// Observer accumulates pipeline observability: wall time per stage
// (grouping, matching, control-signal discovery, the trial/reduce loop,
// verification), work counters (trials, reductions, propagation visits, SAT
// effort), and peak gauges. One Observer may be shared across Identify calls
// — sequential or concurrent — to aggregate them: each run records into a
// private recorder and folds it in under the Observer's lock when the run
// finishes, so concurrent runs never alias one recorder and a reader never
// sees a half-merged run. Parallel runs merge per-worker recorders
// deterministically before that fold.
type Observer struct {
	mu     sync.Mutex
	rec    *obs.Recorder
	labels bool
}

// NewObserver returns an empty Observer.
func NewObserver() *Observer { return &Observer{rec: obs.New()} }

// EnableProfileLabels makes the observed pipeline label each stage region
// with a stage=<name> pprof goroutine label, so CPU-profile samples split by
// stage (`go tool pprof -tagfocus stage=trial`). Enable it only while a CPU
// profile is being taken — each labeled region allocates.
func (o *Observer) EnableProfileLabels() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.labels = true
	o.rec.EnableProfileLabels()
}

// newRunRecorder hands a run its private recorder (inheriting the
// profile-labels setting); nil Observer means no observation.
func (o *Observer) newRunRecorder() *obs.Recorder {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r := obs.New()
	if o.labels {
		r.EnableProfileLabels()
	}
	return r
}

// absorb folds one finished run's private recorder into the Observer.
func (o *Observer) absorb(r *obs.Recorder) {
	if o == nil || r == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rec.Merge(r)
}

// snapshot returns a private copy of the current state (nil on a nil
// Observer, which every obs.Recorder method accepts).
func (o *Observer) snapshot() *obs.Recorder {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rec.Clone()
}

// Merge folds other's observations into o (stage times and counters add,
// gauges keep the peak). Both Observers may be in concurrent use; merging an
// Observer into itself, or a nil on either side, is a no-op. This is how a
// server aggregates per-job Observers into one served metrics view.
func (o *Observer) Merge(other *Observer) {
	if o == nil || other == nil || o == other {
		return
	}
	o.absorb(other.snapshot())
}

// Snapshot returns an independent copy of the Observer's current state, safe
// to render while the original keeps accumulating concurrent runs.
func (o *Observer) Snapshot() *Observer {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return &Observer{rec: o.rec.Clone(), labels: o.labels}
}

// WriteText renders the collected breakdown in aligned human-readable form.
func (o *Observer) WriteText(w io.Writer) error { return o.snapshot().WriteText(w) }

// MarshalJSON renders the breakdown as deterministic JSON (stages, counters,
// and gauges as arrays in a fixed order).
func (o *Observer) MarshalJSON() ([]byte, error) { return o.snapshot().MarshalJSON() }

// StageLine renders the per-stage time split on one line
// ("group=0.1ms match=2.3ms ...").
func (o *Observer) StageLine() string { return o.snapshot().StageLine() }

// Word is one identified word.
type Word struct {
	Bits []string
	// Verified means the bits' cones were fully similar, directly or on the
	// reduced circuit under Assignment.
	Verified bool
	// ControlSignals are the nets whose assignment produced this word.
	ControlSignals []string
	// Assignment is the successful control-value assignment (net -> value).
	Assignment map[string]bool
}

// Report is the output of Identify or IdentifyBaseline.
type Report struct {
	Technique string // "control-signals" or "shape-hashing"
	Words     []Word
	// ControlSignalsUsed are the distinct control signals whose assignments
	// produced emitted words (the paper's "#Control Signals" column).
	ControlSignalsUsed []string
	// ControlSignalsFound are all relevant control signals identified.
	ControlSignalsFound []string
	// ReductionVerification summarizes cone-equivalence proofs when
	// Options.VerifyReduction is set; nil otherwise.
	ReductionVerification *ReductionVerification
	// Interrupted reports that Options.Context was cancelled (or timed out)
	// before identification finished; the report holds the partial output.
	Interrupted bool
	// Failures records every adjacency group whose pipeline panicked. The
	// panic was recovered at the group boundary and the group contributed no
	// words; every other group's words are exactly what a clean run returns.
	// Empty on a healthy run.
	Failures []GroupFailure
	// Degradations itemizes every subgroup that hit an Options.Budgets limit
	// and fell back to the full-structural match.
	Degradations []Degradation
	// DegradedGroups counts adjacency groups with at least one degradation.
	DegradedGroups int
	Trace          []string
}

// GroupFailure is one recovered group-pipeline panic.
type GroupFailure struct {
	// Group is the adjacency-group index (grouping order).
	Group int
	// Stage is the pipeline stage that panicked ("match", "ctrlsig",
	// "trial", "verify", or "init").
	Stage string
	// Message is the rendered panic value.
	Message string
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// String renders the failure on one line (without the stack).
func (f GroupFailure) String() string {
	return fmt.Sprintf("group %d failed at stage %q: %s", f.Group, f.Stage, f.Message)
}

// Degradation is one budget-triggered fallback to the structural match.
type Degradation struct {
	// Group is the adjacency-group index; Subgroup names the subgroup's
	// first bit net.
	Group    int
	Subgroup string
	// Reason is the exceeded budget ("max-cone-gates", "max-subgroup-pairs",
	// or "max-trials-per-group"); Detail quantifies the violation.
	Reason string
	Detail string
}

// String renders the degradation on one line.
func (d Degradation) String() string {
	return fmt.Sprintf("group %d subgroup %s degraded (%s): %s", d.Group, d.Subgroup, d.Reason, d.Detail)
}

// ReductionVerification reports the soundness proof of the reductions behind
// a report's words: every rewritten bit cone is checked equivalent to the
// original under the chosen control assignment.
type ReductionVerification struct {
	ConesProved  int
	ConesRefuted int // non-zero means a reduction rewrite is unsound
	ConesUnknown int // SAT budget exhausted; reported, not proved
	// Failures itemizes refuted and undecided cones.
	Failures []ReductionCheck
}

// ReductionCheck is one refuted or undecided cone.
type ReductionCheck struct {
	Bit        string          // net name of the cone root
	Assignment string          // formatted control assignment
	Verdict    string          // "not-equivalent" or "unknown"
	Stage      string          // deciding pipeline stage
	Cex        map[string]bool // counterexample for refutations
}

// Sound reports whether no cone was refuted.
func (v *ReductionVerification) Sound() bool { return v != nil && v.ConesRefuted == 0 }

// MultiBitWords returns only words of two or more bits.
func (r *Report) MultiBitWords() []Word {
	var out []Word
	for _, w := range r.Words {
		if len(w.Bits) >= 2 {
			out = append(out, w)
		}
	}
	return out
}

// Identify runs the control-signal word-identification pipeline. When
// Options.Lint is set, the design must first pass the static-analysis gate.
func Identify(d *Design, opt Options) (*Report, error) {
	if err := lintGate(d, opt.Lint); err != nil {
		return nil, err
	}
	copt := opt.toCore()
	// The run records into a recorder of its own; Options.Observer receives
	// the whole run in one locked fold below, which is what makes sharing an
	// Observer across concurrent Identify calls safe.
	runRec := opt.Observer.newRunRecorder()
	copt.Observer = runRec
	res := core.Identify(d.nl, copt)
	opt.Observer.absorb(runRec)
	rep := &Report{Technique: "control-signals", Trace: res.Trace, Interrupted: res.Stats.Interrupted}
	if len(res.Words) > 0 {
		// Every word's Bits and ControlSignals are cut from one name slab.
		n := 0
		for _, w := range res.Words {
			n += len(w.Bits) + len(w.Controls)
		}
		names := make([]string, 0, n)
		rep.Words = make([]Word, len(res.Words))
		for i, w := range res.Words {
			rep.Words[i] = d.coreWord(w, &names)
		}
	}
	rep.ControlSignalsUsed = d.netNames(res.UsedControlSignals)
	rep.ControlSignalsFound = d.netNames(res.FoundControlSignals)
	rep.DegradedGroups = res.Stats.DegradedGroups
	for _, f := range res.Failures {
		rep.Failures = append(rep.Failures, GroupFailure{
			Group: f.Group, Stage: f.Stage, Message: f.Message, Stack: f.Stack,
		})
	}
	for _, dg := range res.Degradations {
		rep.Degradations = append(rep.Degradations, Degradation{
			Group: dg.Group, Subgroup: dg.Subgroup, Reason: dg.Reason, Detail: dg.Detail,
		})
	}
	if opt.VerifyReduction {
		rv := &ReductionVerification{
			ConesProved:  res.Stats.ConesProved,
			ConesRefuted: res.Stats.ConesRefuted,
			ConesUnknown: res.Stats.ConesUnknown,
		}
		for _, c := range res.ReductionChecks {
			rv.Failures = append(rv.Failures, ReductionCheck{
				Bit:        c.Name,
				Assignment: c.Assign,
				Verdict:    c.Verdict,
				Stage:      c.Stage,
				Cex:        c.Cex,
			})
		}
		rep.ReductionVerification = rv
	}
	return rep, nil
}

// IdentifyBaseline runs the shape-hashing baseline ("Base" in the paper's
// Table 1). depth <= 0 selects the default cone depth.
func IdentifyBaseline(d *Design, depth int) (*Report, error) {
	res := shapehash.Identify(d.nl, depth)
	rep := &Report{Technique: "shape-hashing"}
	if len(res.Words) > 0 {
		n := 0
		for _, bits := range res.Words {
			n += len(bits)
		}
		names := make([]string, 0, n)
		rep.Words = make([]Word, len(res.Words))
		for i, bits := range res.Words {
			rep.Words[i] = Word{Bits: d.appendNames(&names, bits), Verified: true}
		}
	}
	return rep, nil
}

// IdentifyFunctional runs functional word identification: bits are grouped
// when their depth-limited cones compute the same canonical function
// (NPN-lite truth-table matching), catching bits that are functionally
// equal through different gate decompositions. maxSupport caps the cone
// support (default 8 inputs); depth <= 0 selects the default cone depth.
// This is the complementary functional stage the paper's related work
// describes; it composes with Reduce the same way the baseline does.
func IdentifyFunctional(d *Design, depth, maxSupport int) (*Report, error) {
	res := functional.Identify(d.nl, functional.Options{Depth: depth, MaxSupport: maxSupport})
	rep := &Report{Technique: "functional"}
	for _, bits := range res.Words {
		rep.Words = append(rep.Words, Word{Bits: d.netNames(bits), Verified: true})
	}
	return rep, nil
}

// coreWord converts one core word, cutting its Bits and ControlSignals from
// the name slab *names (see appendNames).
func (d *Design) coreWord(w core.Word, names *[]string) Word {
	out := Word{
		Bits:           d.appendNames(names, w.Bits),
		Verified:       w.Verified,
		ControlSignals: d.appendNames(names, w.Controls),
	}
	if len(w.Assignment) > 0 {
		out.Assignment = make(map[string]bool, len(w.Assignment))
		for n, v := range w.Assignment {
			out.Assignment[d.nl.NetName(n)] = v == logic.One
		}
	}
	return out
}

func (d *Design) netNames(ids []netlist.NetID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = d.nl.NetName(id)
	}
	return out
}

// appendNames appends the names of ids to the slab *names and returns them
// as a capacity-limited slice of it. The slab must have room for them, so
// that the slices cut before stay in the same array.
func (d *Design) appendNames(names *[]string, ids []netlist.NetID) []string {
	lo := len(*names)
	for _, id := range ids {
		*names = append(*names, d.nl.NetName(id))
	}
	return (*names)[lo:len(*names):len(*names)]
}

// Evaluation scores a report against the design's reference words using the
// paper's three metrics.
type Evaluation struct {
	ReferenceWords    int
	FullyFound        int
	PartiallyFound    int
	NotFound          int
	FullyFoundPct     float64
	NotFoundPct       float64
	FragmentationRate float64
	// PerWord maps each reference word name to its outcome:
	// "fully-found", "partially-found", or "not-found".
	PerWord map[string]string
}

// Evaluate scores rep against d's golden reference words.
func Evaluate(d *Design, rep *Report) Evaluation {
	refs := refwords.Extract(d.nl)
	// Every word's ID list is cut from one slab.
	n := 0
	for _, w := range rep.Words {
		n += len(w.Bits)
	}
	slab := make([]netlist.NetID, 0, n)
	gen := make([][]netlist.NetID, len(rep.Words))
	for i, w := range rep.Words {
		lo := len(slab)
		for _, name := range w.Bits {
			if id, ok := d.nl.NetByName(name); ok {
				slab = append(slab, id)
			}
		}
		gen[i] = slab[lo:len(slab):len(slab)]
	}
	m := metrics.Evaluate(refs, gen)
	ev := Evaluation{
		ReferenceWords:    m.RefWords,
		FullyFound:        m.FullyFound,
		PartiallyFound:    m.PartiallyFound,
		NotFound:          m.NotFound,
		FullyFoundPct:     m.FullyFoundPct(),
		NotFoundPct:       m.NotFoundPct(),
		FragmentationRate: m.FragmentationRate,
		PerWord:           make(map[string]string, len(m.Words)),
	}
	for _, wr := range m.Words {
		ev.PerWord[wr.Ref.Name] = wr.Outcome.String()
	}
	return ev
}

// Reduce returns a new Design: the circuit simplified under the given
// control-signal assignment (net name -> value), with constants propagated
// forward and backward and dead logic removed. This is the integration path
// of the paper's §2.1 — the reduced circuit can be fed to any other
// word-identification or reverse-engineering tool.
func Reduce(d *Design, assignment map[string]bool) (*Design, error) {
	assign := make(map[netlist.NetID]logic.Value, len(assignment))
	for name, v := range assignment {
		id, ok := d.nl.NetByName(name)
		if !ok {
			return nil, fmt.Errorf("gatewords: no net named %q", name)
		}
		assign[id] = logic.FromBool(v)
	}
	red, err := reduce.Apply(d.nl, assign)
	if err != nil {
		return nil, err
	}
	m, err := reduce.Materialize(red)
	if err != nil {
		return nil, err
	}
	return &Design{nl: m.NL}, nil
}

// GenerateBenchmark builds one of the ITC99-analog benchmarks ("b03",
// "b08", "b18", ... or the full profile names "b03a"...).
func GenerateBenchmark(name string) (*Design, error) {
	p, ok := bench.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("gatewords: unknown benchmark %q", name)
	}
	gen, err := p.Generate()
	if err != nil {
		return nil, err
	}
	return &Design{nl: gen.NL}, nil
}

// BenchmarkNames lists the available generated benchmarks.
func BenchmarkNames() []string {
	names := make([]string, len(bench.Profiles))
	for i, p := range bench.Profiles {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Figure1 builds the paper's Figure-1 circuit: the 3-bit word of benchmark
// b03 whose dissimilar subtrees are resolved by control signals U201/U221.
func Figure1() (*Design, error) {
	nl, _, err := bench.Figure1Circuit()
	if err != nil {
		return nil, err
	}
	return &Design{nl: nl}, nil
}

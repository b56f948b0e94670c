// Package core implements the word-identification procedure of DAC'15
// "On Using Control Signals for Word-Level Identification in A Gate-Level
// Netlist" (Tashjian & Davoodi) — the flow of the paper's Figure 2:
//
//  1. Find potential bits of a word by netlist-file adjacency (§2.2).
//  2. Within each group, form subgroups of bits with fully or partially
//     matching fanin-cone structure, remembering the dissimilar subtrees
//     (§2.3).
//  3. Identify the relevant control signals among the dissimilar subtrees
//     (§2.4).
//  4. Assign feasible values to one, then two (configurably three) control
//     signals at a time, simplify the circuit by forward/backward constant
//     propagation, and re-check whether the bits' cones have become fully
//     similar (§2.5). Successful assignments turn partially matching
//     subgroups into verified words.
//
// Subgroups whose bits remain strongly partially similar (every bit shares
// at least a Theta fraction of its subtrees with the subgroup's common
// structure) are still emitted as unverified words: partial-match grouping
// alone recovers words on benchmarks where no useful control signal exists,
// matching the paper's b03/b04 rows, which improve on the baseline with
// zero control signals found.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gatewords/internal/cone"
	"gatewords/internal/ctrlsig"
	"gatewords/internal/eqcheck"
	"gatewords/internal/group"
	"gatewords/internal/guard"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
	"gatewords/internal/reduce"
)

// Options configures the pipeline. The zero value selects the paper's
// settings: cone depth 4, at most two simultaneous control assignments,
// partial-group emission with cohesion threshold 1/2.
type Options struct {
	// Depth is the fanin-cone depth in levels of logic (default 4).
	Depth int
	// MaxAssign is the maximum number of control signals assigned
	// simultaneously, 1..3 (default 2, the paper's setting; 3 implements
	// the paper's future-work extension).
	MaxAssign int
	// Theta is the cohesion threshold for emitting a partially matching
	// subgroup as an unverified word: every bit must share at least this
	// fraction of its subtrees with the subgroup's common structure.
	// Default 0.5.
	Theta float64
	// NoPartialGroups disables the Theta rule, so only fully similar
	// (possibly after reduction) bit sets become words. Ablation knob.
	NoPartialGroups bool
	// DFFInputsOnly restricts candidate bits to flip-flop D inputs.
	DFFInputsOnly bool
	// CollectTrace records a human-readable decision log in Result.Trace.
	CollectTrace bool
	// Workers sets the number of adjacency groups processed concurrently:
	// 0 or 1 is sequential; negative selects GOMAXPROCS. Groups are
	// independent (the netlist is read-only during identification), and
	// results are merged in group order, so the output is identical to the
	// sequential run.
	Workers int
	// VerifyReduction proves, for every emitted word that relied on a
	// control-signal reduction, that each bit's rewritten cone is equivalent
	// to the original cone under the inferred constants (AIG + SAT, see
	// internal/eqcheck). Outcomes land in Stats.ConesProved / ConesRefuted /
	// ConesUnknown; refutations and undecided cones are itemized in
	// Result.ReductionChecks.
	VerifyReduction bool
	// Context, when non-nil, bounds the run: cancellation (or a deadline) is
	// checked cooperatively at group, subgroup, and trial granularity. An
	// interrupted run returns the words emitted so far — every emitted word
	// is complete, never a half-merged subgroup — with Stats.Interrupted set.
	Context context.Context
	// Observer, when non-nil, receives per-stage wall times, work counters,
	// and peak gauges (see internal/obs). A sequential run records into it
	// directly; each parallel worker records into a private recorder that is
	// merged into Observer after the pool drains. Counters and stage times
	// add and gauges keep maxima, so the observed totals (and the Result)
	// are independent of worker scheduling. A nil Observer costs nothing on
	// the hot path.
	Observer *obs.Recorder
	// Budgets bounds per-group pipeline work (cone scope, matching cross
	// product, assignment trials). A subgroup that exceeds a budget degrades
	// to the cheap full-structural match and is itemized in
	// Result.Degradations rather than aborting the run. The zero value is
	// unlimited.
	Budgets guard.Budgets
	// FailFast stops the run at the first recovered group failure: the
	// sequential path processes no further groups, and parallel workers stop
	// picking up new ones (in-flight groups still finish). Completed groups'
	// words are kept. Off by default: a failed group is isolated and the run
	// continues.
	FailFast bool
}

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = cone.DefaultDepth
	}
	if o.Depth > cone.MaxDepth {
		// Out-of-range depths are clamped rather than rejected; the key
		// engine sizes per-level scratch by depth and memoizes per (net,
		// depth), so an unbounded depth is never meaningful.
		o.Depth = cone.MaxDepth
	}
	if o.MaxAssign <= 0 {
		o.MaxAssign = 2
	}
	if o.MaxAssign > 3 {
		o.MaxAssign = 3
	}
	if o.Theta <= 0 {
		o.Theta = 0.5
	}
	return o
}

// Per-subgroup caps of the §2.5 search: at most maxControlSignals relevant
// signals are assigned (the paper observes the count per word is small),
// in at most maxTrials trials.
const (
	maxControlSignals = 8
	maxTrials         = 96
)

// Word is one generated word.
type Word struct {
	Bits []netlist.NetID
	// Verified marks words whose bits' cones are fully similar, either
	// directly or on the reduced circuit under Assignment.
	Verified bool
	// Controls lists the control signals whose assignment produced this
	// word (empty when no reduction was needed).
	Controls []netlist.NetID
	// Assignment is the successful control-value assignment, if any.
	Assignment map[netlist.NetID]logic.Value
}

// Stats counts pipeline work for reporting and benchmarks.
type Stats struct {
	Groups        int // first-level adjacency groups
	Subgroups     int // partially/fully matched subgroups
	CandidateBits int // bits with analyzable cones
	// Trials counts assignment trials attempted: every assignment the
	// enumeration budget admitted and propagated, feasible or not.
	Trials int
	// Reductions counts the trials whose propagation succeeded (no
	// contradiction), i.e. the trials that actually produced a reduced
	// circuit to re-match on. Trials - Reductions is the infeasible count.
	Reductions        int
	ReducedWords      int // words verified through reduction
	PartialGroupWords int // words emitted by the Theta rule
	// Cone-equivalence verification outcomes (Options.VerifyReduction).
	ConesProved  int // rewritten cones proved equivalent to their originals
	ConesRefuted int // cones with a counterexample — a soundness bug
	ConesUnknown int // cones the SAT budget could not decide
	// Interrupted reports that Options.Context was cancelled (or its
	// deadline expired) before the pipeline finished: the Result is the
	// partial output accumulated up to the interruption point.
	Interrupted bool
	// DegradedGroups counts adjacency groups in which at least one subgroup
	// hit an Options.Budgets limit and degraded to the full-structural match
	// (itemized in Result.Degradations).
	DegradedGroups int
}

// ReductionCheck itemizes one reduction-verification anomaly: a rewritten
// cone the equivalence checker refuted or could not decide. Proved cones are
// only counted (Stats.ConesProved) — on a healthy build every cone proves.
type ReductionCheck struct {
	Bit     netlist.NetID
	Name    string          // net name of the cone root
	Assign  string          // formatted control assignment
	Verdict string          // "not-equivalent" or "unknown"
	Stage   string          // pipeline stage that decided (or gave up)
	Cex     map[string]bool // counterexample, for refutations
}

// Result is the pipeline output.
type Result struct {
	Words []Word
	// UsedControlSignals are the distinct control signals whose assignments
	// contributed to emitted words (the paper's "#Control Signals" column).
	UsedControlSignals []netlist.NetID
	// FoundControlSignals are all distinct relevant control signals
	// identified, whether or not an assignment helped.
	FoundControlSignals []netlist.NetID
	// ReductionChecks lists verification anomalies (refuted or undecided
	// cones) when Options.VerifyReduction is set; empty on a sound run.
	ReductionChecks []ReductionCheck
	// Failures records every group whose pipeline panicked: the panic was
	// recovered at the group boundary, the group's partial output discarded,
	// and the remaining groups' words returned intact. Empty on a healthy
	// run.
	Failures []guard.GroupFailure
	// Degradations itemizes every subgroup that hit an Options.Budgets limit
	// and fell back to the full-structural match, in group order.
	Degradations []guard.Degradation
	Stats        Stats
	Trace        []string
}

// GeneratedWords returns just the bit sets, in emission order, for metric
// evaluation.
func (r *Result) GeneratedWords() [][]netlist.NetID {
	out := make([][]netlist.NetID, len(r.Words))
	for i, w := range r.Words {
		out[i] = w.Bits
	}
	return out
}

// Identify runs the full pipeline on nl.
func Identify(nl *netlist.Netlist, opt Options) *Result {
	opt = opt.withDefaults()
	var groups [][]netlist.NetID
	opt.Observer.Do(opt.Context, obs.StageGroup, func() {
		groups = group.Adjacent(nl, group.Options{DFFInputsOnly: opt.DFFInputsOnly})
	})

	workers := opt.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && len(groups) > 1 {
		return identifyParallel(nl, opt, groups, workers)
	}

	p := newPipeline(nl, opt, opt.Observer)
	// A word holds at least one of its group's nets, and no net of a group
	// is in two words: the groups' nets bound the run's words.
	n := 0
	for _, nets := range groups {
		n += len(nets)
	}
	p.out.Words = make([]Word, 0, n)
	for gi, nets := range groups {
		out := p.runGroup(gi, nets)
		p.out.Stats.add(out.stats)
		if out.failure != nil {
			p.out.Failures = append(p.out.Failures, *out.failure)
			if opt.FailFast {
				break
			}
		}
	}
	return finish(p.out, len(groups), p.used, p.found)
}

// pipeline runs adjacency groups one after another: one pipeline serves a
// sequential run or one parallel worker, and runGroup reinitialises it for
// each group.
//
// Every group appends its words, trace lines, degradations and reduction
// checks to out, and its control signals to used and found, so the run's
// output accumulates in one set of buffers (see runGroup for how a failed
// group is taken back out). stats counts the current group only.
//
// The rest is state that groups reset rather than rebuild: the propagator
// clears its undo trail on every apply, the builder forgets its keys and
// restarts its interner's numbering for each multi-net group, and the trial
// builder, which views the propagator's Reduction with an interner of its
// own, does the same for every trial. Each is created on first use. rec is
// where the groups record: Options.Observer itself on the sequential path, a
// private recorder merged into it after the pool drains on the parallel path
// (nil when the run is not observed; a nil recorder costs ~nothing).
type pipeline struct {
	nl  *netlist.Netlist
	opt Options
	rec *obs.Recorder

	out         *Result
	used, found []netlist.NetID // with repeats; finish makes them sets

	prop  *reduce.Propagator
	b     *cone.Builder
	trial *cone.Builder
	// roots holds the current trial's bit nets, the roots of its propagation
	// region. bits holds the current group's cones, one per net (nil for a
	// net without one), and subgroups its subgroups as ranges of bits; one
	// is the unkeyed cone of a one-net group.
	roots     []netlist.NetID
	bits      []*cone.BitCone
	subgroups []bitRange
	one       cone.BitCone

	// group is the adjacency-group index being run.
	group int
	// stage tracks the last entered pipeline stage ("init" before the
	// first); runGroup's recover boundary reads it to attribute a panic.
	stage string
	// groupTrials counts assignment trials across the whole group, the
	// currency of Budgets.MaxTrialsPerGroup.
	groupTrials int
	stats       Stats
}

// bitRange is a subgroup: the bits [lo, hi) of its group.
type bitRange struct{ lo, hi int }

func newPipeline(nl *netlist.Netlist, opt Options, rec *obs.Recorder) *pipeline {
	return &pipeline{nl: nl, opt: opt, rec: rec, out: &Result{}}
}

// marks are the lengths of a pipeline's output buffers at the start or the
// end of one group's output.
type marks struct{ words, trace, degradations, checks, used, found int }

func (p *pipeline) marks() marks {
	return marks{len(p.out.Words), len(p.out.Trace), len(p.out.Degradations), len(p.out.ReductionChecks), len(p.used), len(p.found)}
}

// truncate drops everything appended to the output buffers after m.
func (p *pipeline) truncate(m marks) {
	p.out.Words = p.out.Words[:m.words]
	p.out.Trace = p.out.Trace[:m.trace]
	p.out.Degradations = p.out.Degradations[:m.degradations]
	p.out.ReductionChecks = p.out.ReductionChecks[:m.checks]
	p.used = p.used[:m.used]
	p.found = p.found[:m.found]
}

// groupOutcome is one adjacency group's contribution to the run: its output
// in the buffers of the pipeline p that ran it, between the marks from and
// to, its Stats, and the recovered failure if it panicked. A zero outcome
// (nil p) marks a group that never ran because FailFast stopped the run
// first.
type groupOutcome struct {
	p        *pipeline
	from, to marks
	stats    Stats
	failure  *guard.GroupFailure
}

// runGroup runs one adjacency group on p inside the group's failure domain.
// A panic anywhere in the group's pipeline is recovered here and becomes a
// GroupFailure, and the group's output is discarded wholesale: p's buffers
// are truncated back to the group's start marks and its stats are dropped,
// so the caller merges the surviving groups as if the failed one had
// produced nothing.
//
// The group records into p.rec behind a snapshot: the recorder is a
// fixed-size value, copied before the group runs. A panic restores the copy
// and counts the recovery, so a failed group's observations are discarded
// too. It also drops p's propagator and both builders, so a propagation or
// keying walk cut short never reaches the next group.
func (p *pipeline) runGroup(gi int, nets []netlist.NetID) (out groupOutcome) {
	var snap obs.Recorder
	if p.rec != nil {
		snap = *p.rec
	}
	out.p, out.from = p, p.marks()
	p.group, p.stage, p.groupTrials, p.stats = gi, "init", 0, Stats{}
	defer func() {
		if v := recover(); v != nil {
			out.failure = guard.NewGroupFailure(gi, p.stage, v)
			out.to = out.from
			p.truncate(out.from)
			p.prop, p.b, p.trial = nil, nil, nil
			if p.rec != nil {
				*p.rec = snap
				p.rec.Add(obs.CtrPanicsRecovered, 1)
			}
		}
	}()
	if !p.cancelled() {
		p.processGroup(nets)
	}
	if len(p.out.Degradations) > out.from.degradations {
		p.stats.DegradedGroups = 1
	}
	out.to, out.stats = p.marks(), p.stats
	return out
}

// add folds one group's Stats into s. Groups is left to the caller.
func (s *Stats) add(g Stats) {
	s.Subgroups += g.Subgroups
	s.CandidateBits += g.CandidateBits
	s.Trials += g.Trials
	s.Reductions += g.Reductions
	s.ReducedWords += g.ReducedWords
	s.PartialGroupWords += g.PartialGroupWords
	s.ConesProved += g.ConesProved
	s.ConesRefuted += g.ConesRefuted
	s.ConesUnknown += g.ConesUnknown
	s.Interrupted = s.Interrupted || g.Interrupted
	s.DegradedGroups += g.DegradedGroups
}

// finish completes a run's Result: its group count, and its control
// signals as sorted sets.
func finish(res *Result, nGroups int, used, found []netlist.NetID) *Result {
	res.Stats.Groups = nGroups
	res.UsedControlSignals = sortedSet(used)
	res.FoundControlSignals = sortedSet(found)
	return res
}

// mergeOutcomes folds the parallel workers' group outcomes into one Result,
// copying each group's output from its worker's buffers in group order, so
// the output is identical to the sequential path's regardless of worker
// scheduling. Failed groups contribute their failure record; fail-fast-
// skipped groups (zero outcomes) contribute nothing.
func mergeOutcomes(outs []groupOutcome) *Result {
	merged := &Result{}
	nWords := 0
	for _, o := range outs {
		nWords += o.to.words - o.from.words
	}
	if nWords > 0 {
		merged.Words = make([]Word, 0, nWords)
	}
	var used, found []netlist.NetID
	for _, o := range outs {
		if o.failure != nil {
			merged.Failures = append(merged.Failures, *o.failure)
		}
		if o.p == nil {
			continue
		}
		from, to, r := o.from, o.to, o.p.out
		merged.Words = append(merged.Words, r.Words[from.words:to.words]...)
		merged.Trace = append(merged.Trace, r.Trace[from.trace:to.trace]...)
		merged.Degradations = append(merged.Degradations, r.Degradations[from.degradations:to.degradations]...)
		merged.ReductionChecks = append(merged.ReductionChecks, r.ReductionChecks[from.checks:to.checks]...)
		used = append(used, o.p.used[from.used:to.used]...)
		found = append(found, o.p.found[from.found:to.found]...)
		merged.Stats.add(o.stats)
	}
	return finish(merged, len(outs), used, found)
}

// identifyParallel fans adjacency groups out over a worker pool, one
// pipeline per worker. Each group runs in its own failure domain
// (runGroup), and per-group outcomes merge in group order so the output
// matches the sequential pipeline exactly regardless of worker scheduling.
// Each worker records into its own recorder, merged into Options.Observer
// once the pool drains; sums and maxima do not depend on which worker ran
// which group. Under FailFast, workers stop picking up new groups once any
// group fails; which in-flight groups complete depends on scheduling, so a
// fail-fast parallel result is best-effort (the non-fail-fast result is
// deterministic).
func identifyParallel(nl *netlist.Netlist, opt Options, groups [][]netlist.NetID, workers int) *Result {
	outs := make([]groupOutcome, len(groups))
	pipes := make([]*pipeline, workers)
	for i := range pipes {
		var rec *obs.Recorder
		if opt.Observer != nil {
			rec = obs.New()
			if opt.Observer.ProfileLabelsEnabled() {
				rec.EnableProfileLabels()
			}
		}
		pipes[i] = newPipeline(nl, opt, rec)
	}
	var failed atomic.Bool
	var wg sync.WaitGroup
	// Pool-level failures: panics that escape runGroup's per-group boundary
	// (pool bookkeeping itself panicking). The backstop keeps the process
	// alive and surfaces the failure in the merged result instead.
	var poolMu sync.Mutex
	var poolFailures []guard.GroupFailure
	// Buffered so the feed loop below can never block on a worker that died
	// in the backstop: every index is deposited up front regardless of how
	// many workers survive to drain it.
	work := make(chan int, len(groups))
	for _, p := range pipes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard.Rescue("pool", func(f *guard.GroupFailure) {
				failed.Store(true)
				poolMu.Lock()
				poolFailures = append(poolFailures, *f)
				poolMu.Unlock()
			})
			for gi := range work {
				if opt.FailFast && failed.Load() {
					continue
				}
				outs[gi] = p.runGroup(gi, groups[gi])
				if outs[gi].failure != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for gi := range groups {
		work <- gi
	}
	close(work)
	wg.Wait()
	for _, p := range pipes {
		opt.Observer.Merge(p.rec)
	}
	merged := mergeOutcomes(outs)
	merged.Failures = append(merged.Failures, poolFailures...)
	return merged
}

// enterStage marks the pipeline as inside the named stage — the label a
// recovered panic is attributed to — and gives guard.Inject its per-stage
// fault-injection point (a no-op unless a test planted a fault).
func (p *pipeline) enterStage(name string) {
	p.stage = name
	guard.Inject(name, p.group)
}

func (p *pipeline) tracef(format string, args ...any) {
	if p.opt.CollectTrace {
		p.out.Trace = append(p.out.Trace, fmt.Sprintf(format, args...))
	}
}

// cancelled reports whether Options.Context has been cancelled, latching
// Stats.Interrupted on the first observation. It is the single cooperative
// cancellation check, consulted before each group, each subgroup, and each
// assignment trial.
func (p *pipeline) cancelled() bool {
	if p.opt.Context == nil {
		return false
	}
	if p.stats.Interrupted {
		return true
	}
	if p.opt.Context.Err() != nil {
		p.stats.Interrupted = true
		return true
	}
	return false
}

// processGroup forms subgroups by sequential full-or-partial matching
// (§2.3), then resolves each. Matching is completed for the whole group
// before any subgroup is resolved so the match work is attributed to its own
// stage and so cancellation between subgroups never abandons a half-matched
// one.
func (p *pipeline) processGroup(nets []netlist.NetID) {
	p.rec.Do(p.opt.Context, obs.StageMatch, func() {
		p.enterStage(obs.StageMatch.String())
		p.formSubgroups(nets)
	})
	for _, r := range p.subgroups {
		if p.cancelled() {
			return
		}
		p.stats.Subgroups++
		p.rec.Max(obs.GaugeSubgroupBits, int64(r.hi-r.lo))
		p.resolveSubgroup(p.bits[r.lo:r.hi], nets[r.lo:r.hi:r.hi])
	}
}

// formSubgroups keys the group's bits into p.bits, one per net, and splits
// them into p.subgroups: runs of consecutive bits that fully or partially
// match their predecessor. A net without a cone ends the run.
func (p *pipeline) formSubgroups(nets []netlist.NetID) {
	p.bits, p.subgroups = p.bits[:0], p.subgroups[:0]
	if len(nets) == 1 {
		// A one-net group is at most a one-bit verified word, and its cone
		// is never compared with another: it needs the root check alone,
		// not an interner, a builder or keys. resolveSubgroup reads only
		// the net of an unkeyed one-bit subgroup.
		if g, kind, ok := cone.RootGate(p.nl, nets[0]); ok {
			p.stats.CandidateBits++
			p.one = cone.BitCone{Net: nets[0], RootGate: g, RootKind: kind}
			p.bits = append(p.bits, &p.one)
			p.subgroups = append(p.subgroups, bitRange{0, 1})
		}
		return
	}
	// One interner numbering per group: numeric KeyID order sorts subtrees,
	// and through them the order of control signals and trials. The
	// pipeline's builder, once made, is reset for each group and then hands
	// out the IDs a fresh one would.
	if p.b == nil {
		p.b = cone.NewBuilder(p.nl, cone.NewInterner(), p.opt.Depth)
	} else {
		p.b.Reset()
	}
	lo := 0
	flush := func(hi int) {
		if hi > lo {
			p.subgroups = append(p.subgroups, bitRange{lo, hi})
		}
		lo = hi
	}
	for i, net := range nets {
		bc := p.b.Bit(net)
		p.bits = append(p.bits, bc)
		if bc == nil {
			flush(i)
			lo = i + 1
			continue
		}
		p.stats.CandidateBits++
		if i > lo && !cone.FullMatch(p.bits[i-1], bc) && !cone.PartialMatch(p.bits[i-1], bc) {
			flush(i)
		}
	}
	flush(len(nets))
}

// resolveSubgroup turns one subgroup of partially/fully matching bits into
// generated words (§2.4 + §2.5). nets holds the bits' nets, capacity-limited:
// a word of the whole subgroup takes it as its Bits.
func (p *pipeline) resolveSubgroup(bits []*cone.BitCone, nets []netlist.NetID) {
	if len(bits) == 1 {
		p.emit(Word{Bits: nets, Verified: true})
		return
	}
	common := cone.CommonKeys(bits)
	dissim := make([][]cone.Subtree, len(bits))
	totalDissim := 0
	for i, bc := range bits {
		dissim[i] = cone.Dissimilar(bc, common)
		totalDissim += len(dissim[i])
	}
	if totalDissim == 0 {
		p.emit(Word{Bits: nets, Verified: true})
		return
	}

	// Budget gates, cheapest first. Each one degrades the subgroup to the
	// full-structural match instead of starting work it cannot finish.
	b := p.opt.Budgets
	if b.MaxSubgroupPairs > 0 && len(bits)*totalDissim > b.MaxSubgroupPairs {
		p.degrade(bits, guard.ReasonSubgroupPairs,
			fmt.Sprintf("%d bits x %d subtrees = %d pairs > budget %d",
				len(bits), totalDissim, len(bits)*totalDissim, b.MaxSubgroupPairs))
		return
	}
	if b.MaxTrialsPerGroup > 0 && p.groupTrials >= b.MaxTrialsPerGroup {
		p.degrade(bits, guard.ReasonTrials,
			fmt.Sprintf("group trial budget %d already spent", b.MaxTrialsPerGroup))
		return
	}

	if b.MaxConeGates > 0 {
		if n := p.coneScopeSize(bits); n > b.MaxConeGates {
			p.degrade(bits, guard.ReasonConeGates,
				fmt.Sprintf("cone scope %d nets > budget %d", n, b.MaxConeGates))
			return
		}
	}

	var signals []ctrlsig.Signal
	p.rec.Do(p.opt.Context, obs.StageCtrlSig, func() {
		p.enterStage(obs.StageCtrlSig.String())
		signals = ctrlsig.Find(p.nl, dissim, p.opt.Depth-1)
	})
	p.rec.Max(obs.GaugeControlSignals, int64(len(signals)))
	if len(signals) > maxControlSignals {
		signals = signals[:maxControlSignals]
	}
	for _, s := range signals {
		p.found = append(p.found, s.Net)
	}
	p.tracef("subgroup %s: %d dissimilar subtrees, %d control signals",
		p.nl.NetName(bits[0].Net), totalDissim, len(signals))

	baseClasses := classesByKey(bits, nil)
	var bestTrial *trialResult
	var trials int
	var truncated bool
	p.rec.Do(p.opt.Context, obs.StageTrial, func() {
		p.enterStage(obs.StageTrial.String())
		bestTrial, trials, truncated = p.runTrials(bits, signals, maxClassSize(baseClasses))
	})
	if p.stats.Interrupted {
		// Cancelled mid-trial-loop: the subgroup's exploration is incomplete,
		// so emit nothing for it — a partial Result never contains a word
		// whose evidence was cut short.
		return
	}
	if truncated {
		p.recordDegradation(bits, guard.ReasonTrials,
			fmt.Sprintf("group trial budget %d exhausted after %d trials in this subgroup",
				b.MaxTrialsPerGroup, trials))
	}

	if bestTrial != nil && bestTrial.maxClass == len(bits) {
		// The assignment made every bit fully similar: one verified word.
		ctrls := assignNets(bestTrial.assign)
		p.used = append(p.used, ctrls...)
		p.stats.ReducedWords++
		p.tracef("subgroup %s: verified %d-bit word via assignment %s",
			p.nl.NetName(bits[0].Net), len(bits), p.formatAssign(bestTrial.assign))
		if p.opt.VerifyReduction {
			p.rec.Do(p.opt.Context, obs.StageVerify, func() { p.verifyTrial(bits, bestTrial) })
		}
		p.emit(Word{Bits: nets, Verified: true, Controls: ctrls, Assignment: bestTrial.assign})
		return
	}

	// No assignment equalized the whole subgroup. If the bits are still
	// strongly cohesive, keep them together as an unverified word.
	if !p.opt.NoPartialGroups && p.cohesive(bits, common) {
		p.stats.PartialGroupWords++
		p.tracef("subgroup %s: emitted as cohesive partial group (%d bits)",
			p.nl.NetName(bits[0].Net), len(bits))
		p.emit(Word{Bits: nets})
		return
	}

	// Otherwise fall back to the best full-similarity classes seen: the
	// best reducing assignment if it beat the unreduced structure, else the
	// unreduced classes.
	classes := baseClasses
	var ctrls []netlist.NetID
	var assign map[netlist.NetID]logic.Value
	if bestTrial != nil {
		classes = bestTrial.classes
		ctrls = assignNets(bestTrial.assign)
		assign = bestTrial.assign
		p.used = append(p.used, ctrls...)
		p.stats.ReducedWords++
		if p.opt.VerifyReduction {
			// Verify only the bits that ride the reduction into a word:
			// members of multi-bit classes.
			inWord := make(map[netlist.NetID]bool)
			for _, cls := range classes {
				if len(cls) >= 2 {
					for _, n := range cls {
						inWord[n] = true
					}
				}
			}
			var vbits []*cone.BitCone
			for _, bc := range bits {
				if inWord[bc.Net] {
					vbits = append(vbits, bc)
				}
			}
			if len(vbits) > 0 {
				p.rec.Do(p.opt.Context, obs.StageVerify, func() { p.verifyTrial(vbits, bestTrial) })
			}
		}
	}
	for _, cls := range classes {
		// Only multi-bit classes carry verification evidence: their cones
		// became fully similar (possibly under the best assignment).
		// Leftover singletons matched nothing and stay unverified.
		w := Word{Bits: cls, Verified: len(cls) >= 2}
		if len(cls) >= 2 && ctrls != nil {
			w.Controls = ctrls
			w.Assignment = assign
		}
		p.emit(w)
	}
}

// runTrials is the §2.5 loop: it propagates each assignment of the
// subgroup's control signals and re-matches the bits on the reduced circuit,
// stopping at the first assignment that makes every bit fully similar. It
// returns the best trial (nil unless one beat bestSize, the largest
// unreduced class), the trials run, and whether the group trial budget cut
// the enumeration short.
func (p *pipeline) runTrials(bits []*cone.BitCone, signals []ctrlsig.Signal, bestSize int) (best *trialResult, trials int, truncated bool) {
	// bestShared marks a best trial whose reduction still shares the
	// propagator's state. verifyTrial reads it after the loop, so it is
	// detached before the next trial overwrites that state.
	bestShared := false
	b := p.opt.Budgets
	p.forEachAssignment(signals, func(assign map[netlist.NetID]logic.Value) bool {
		if trials >= maxTrials || p.cancelled() {
			return false
		}
		if b.MaxTrialsPerGroup > 0 && p.groupTrials >= b.MaxTrialsPerGroup {
			// Mid-enumeration exhaustion truncates the search but keeps the
			// evidence gathered so far: the caller's fallback still uses the
			// best trial seen before the budget ran out.
			truncated = true
			return false
		}
		trials++
		p.groupTrials++
		p.stats.Trials++
		p.rec.Add(obs.CtrTrials, 1)
		if bestShared {
			best.red = best.red.Detach()
			bestShared = false
		}
		tr := p.tryAssignment(bits, assign)
		if p.opt.CollectTrace {
			p.traceTrial(bits, assign, tr)
		}
		if tr == nil {
			return true
		}
		if tr.maxClass == len(bits) {
			best = tr
			return false
		}
		if tr.maxClass > bestSize {
			bestSize = tr.maxClass
			best = tr
			bestShared = p.opt.VerifyReduction
		}
		return true
	})
	return best, trials, truncated
}

// traceTrial logs one trial's verdict. Callers check CollectTrace first: an
// untraced run never formats the assignment.
func (p *pipeline) traceTrial(bits []*cone.BitCone, assign map[netlist.NetID]logic.Value, tr *trialResult) {
	if tr == nil {
		p.tracef("subgroup %s: trial %s infeasible", p.nl.NetName(bits[0].Net), p.formatAssign(assign))
		return
	}
	p.tracef("subgroup %s: trial %s -> max class %d/%d", p.nl.NetName(bits[0].Net), p.formatAssign(assign), tr.maxClass, len(bits))
}

// recordDegradation itemizes one budget violation and counts it for the
// observer. It does not emit words: the caller decides whether the subgroup
// keeps its partial evidence (trial truncation) or falls all the way back to
// the structural classes (degrade).
func (p *pipeline) recordDegradation(bits []*cone.BitCone, reason, detail string) {
	p.out.Degradations = append(p.out.Degradations, guard.Degradation{
		Group:    p.group,
		Subgroup: p.nl.NetName(bits[0].Net),
		Reason:   reason,
		Detail:   detail,
	})
	p.rec.Add(obs.CtrDegradedSubgroups, 1)
	p.tracef("subgroup %s: degraded (%s): %s", p.nl.NetName(bits[0].Net), reason, detail)
}

// degrade is the budget-exceeded fallback: record the degradation and emit
// the subgroup's full-structural word classes — what the shape-hashing
// baseline would produce — skipping control-signal discovery and trials
// entirely. Multi-bit classes carry full-similarity evidence and stay
// verified; leftover singletons matched nothing.
func (p *pipeline) degrade(bits []*cone.BitCone, reason, detail string) {
	p.recordDegradation(bits, reason, detail)
	for _, cls := range classesByKey(bits, nil) {
		p.emit(Word{Bits: cls, Verified: len(cls) >= 2})
	}
}

// cohesive reports whether every bit shares at least Theta of its subtrees
// with the subgroup's common structure.
func (p *pipeline) cohesive(bits []*cone.BitCone, common []cone.KeyID) bool {
	if len(common) == 0 {
		return false
	}
	for _, bc := range bits {
		if cone.SimilarFraction(bc, common) < p.opt.Theta {
			return false
		}
	}
	return true
}

type trialResult struct {
	assign   map[netlist.NetID]logic.Value
	red      *reduce.Reduction
	classes  [][]netlist.NetID
	maxClass int
}

// verifyTrial proves each bit cone of the subgroup equivalent, under tr's
// reduction, to its original — only the winning trial of a subgroup is
// verified, so cost scales with emitted words, not with trials. bits is
// restricted to the bits that actually rode the reduction into a word.
func (p *pipeline) verifyTrial(bits []*cone.BitCone, tr *trialResult) {
	p.enterStage(obs.StageVerify.String())
	roots := make([]netlist.NetID, len(bits))
	for i, bc := range bits {
		roots[i] = bc.Net
	}
	// RetryUnknown gives budget-exhausted cones an escalating-retry ladder:
	// the budget doubles per retry, so undecided verdicts cost extra effort
	// only where the first attempt came up empty.
	vr := tr.red.VerifyCones(roots, p.opt.Depth, eqcheck.Options{
		RetryUnknown: 2,
		Observer:     p.rec,
	})
	p.stats.ConesProved += vr.Proved
	p.stats.ConesRefuted += vr.Refuted
	p.stats.ConesUnknown += vr.Unknown
	for _, c := range vr.Checks {
		if c.Result.Verdict == eqcheck.Equivalent {
			continue
		}
		p.out.ReductionChecks = append(p.out.ReductionChecks, ReductionCheck{
			Bit:     c.Root,
			Name:    c.Name,
			Assign:  p.formatAssign(tr.assign),
			Verdict: c.Result.Verdict.String(),
			Stage:   c.Result.Stage,
			Cex:     c.Result.Cex,
		})
		p.tracef("VERIFY %s under %s: %s (stage %s)",
			c.Name, p.formatAssign(tr.assign), c.Result.Verdict, c.Result.Stage)
	}
}

// coneScopeSize returns the size of the subgroup's cone scope, the measure
// of Budgets.MaxConeGates: the union of the bits' fanin cones, each the bit
// and every net within cone depth below it.
func (p *pipeline) coneScopeSize(bits []*cone.BitCone) int {
	scope := make(map[netlist.NetID]bool)
	var c netlist.Cone
	for _, bc := range bits {
		for _, cn := range c.Walk(p.nl, bc.Net, p.opt.Depth) {
			scope[cn.Net] = true
		}
	}
	return len(scope)
}

// propagate applies one assignment on the worker's propagator, scoped to
// the region of the subgroup's bits: the combinational fanin of the bits
// and of the assigned nets. The reduction is exact on that region, which
// holds every net the trial builder and VerifyCones read.
func (p *pipeline) propagate(bits []*cone.BitCone, assign map[netlist.NetID]logic.Value) (*reduce.Reduction, error) {
	if p.prop == nil {
		p.prop = reduce.NewPropagator(p.nl)
	}
	p.roots = p.roots[:0]
	for _, bc := range bits {
		p.roots = append(p.roots, bc.Net)
	}
	return p.prop.ApplyScoped(assign, p.roots, p.rec)
}

// tryAssignment propagates one assignment and regroups the subgroup's bits
// by full similarity on the reduced circuit. It returns nil for infeasible
// (contradictory) assignments or ones that constant-fold a bit away.
//
// The trial builder keys the bits afresh on the reduced circuit. Trial
// classes depend only on key equality among this trial's bits, so it has
// an interner of its own, and it is reset before every trial: its KeyIDs
// never leave the trial, and the group's interner does not grow with them.
func (p *pipeline) tryAssignment(bits []*cone.BitCone, assign map[netlist.NetID]logic.Value) *trialResult {
	red, err := p.propagate(bits, assign)
	if err != nil {
		if p.opt.CollectTrace {
			p.tracef("reduce conflict: %v", err)
		}
		return nil
	}
	p.stats.Reductions++
	p.rec.Add(obs.CtrReductions, 1)
	// Every apply rewrites the same Reduction in place, so the builder made
	// over the first one views every later one.
	if p.trial == nil {
		p.trial = cone.NewBuilder(red, cone.NewInterner(), p.opt.Depth)
	} else {
		p.trial.Reset()
	}
	newBits := make([]*cone.BitCone, len(bits))
	for i, bc := range bits {
		nb := p.trial.Bit(bc.Net)
		if nb == nil {
			if p.opt.CollectTrace {
				p.tracef("bit %s simplified away (const=%v)", p.nl.NetName(bc.Net), red.Value(bc.Net))
			}
			return nil
		}
		newBits[i] = nb
	}
	classes := classesByKey(newBits, bits)
	return &trialResult{assign: assign, red: red, classes: classes, maxClass: maxClassSize(classes)}
}

// forEachAssignment enumerates feasible assignments: singles first, then
// pairs, then triples, bounded by MaxAssign. fn returns false to stop.
func (p *pipeline) forEachAssignment(signals []ctrlsig.Signal, fn func(map[netlist.NetID]logic.Value) bool) {
	single := func() bool {
		for _, s := range signals {
			for _, v := range s.Values {
				if !fn(map[netlist.NetID]logic.Value{s.Net: v}) {
					return false
				}
			}
		}
		return true
	}
	pair := func() bool {
		for i := 0; i < len(signals); i++ {
			for j := i + 1; j < len(signals); j++ {
				for _, vi := range signals[i].Values {
					for _, vj := range signals[j].Values {
						if !fn(map[netlist.NetID]logic.Value{signals[i].Net: vi, signals[j].Net: vj}) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	triple := func() bool {
		for i := 0; i < len(signals); i++ {
			for j := i + 1; j < len(signals); j++ {
				for k := j + 1; k < len(signals); k++ {
					for _, vi := range signals[i].Values {
						for _, vj := range signals[j].Values {
							for _, vk := range signals[k].Values {
								m := map[netlist.NetID]logic.Value{
									signals[i].Net: vi,
									signals[j].Net: vj,
									signals[k].Net: vk,
								}
								if !fn(m) {
									return false
								}
							}
						}
					}
				}
			}
		}
		return true
	}
	if !single() {
		return
	}
	if p.opt.MaxAssign >= 2 && !pair() {
		return
	}
	if p.opt.MaxAssign >= 3 {
		triple()
	}
}

func (p *pipeline) emit(w Word) { p.out.Words = append(p.out.Words, w) }

func (p *pipeline) formatAssign(assign map[netlist.NetID]logic.Value) string {
	nets := assignNets(assign)
	s := ""
	for i, n := range nets {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%s", p.nl.NetName(n), assign[n])
	}
	return s
}

// classesByKey groups bits by whole-cone key equality, preserving first-seen
// order. orig, when non-nil, supplies the net IDs to report (the bits'
// identities in the original netlist).
func classesByKey(bits []*cone.BitCone, orig []*cone.BitCone) [][]netlist.NetID {
	type class struct {
		kind logic.Kind
		key  cone.KeyID
	}
	index := make(map[class]int)
	var classes [][]netlist.NetID
	for i, bc := range bits {
		net := bc.Net
		if orig != nil {
			net = orig[i].Net
		}
		c := class{kind: bc.RootKind, key: bc.FullKey}
		if ci, ok := index[c]; ok {
			classes[ci] = append(classes[ci], net)
			continue
		}
		index[c] = len(classes)
		classes = append(classes, []netlist.NetID{net})
	}
	return classes
}

func maxClassSize(classes [][]netlist.NetID) int {
	m := 0
	for _, c := range classes {
		if len(c) > m {
			m = len(c)
		}
	}
	return m
}

func assignNets(assign map[netlist.NetID]logic.Value) []netlist.NetID {
	out := make([]netlist.NetID, 0, len(assign))
	for n := range assign {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedSet returns the distinct nets of nets in increasing order, sorting
// nets in place. It never returns nil.
func sortedSet(nets []netlist.NetID) []netlist.NetID {
	if nets == nil {
		return []netlist.NetID{}
	}
	slices.Sort(nets)
	return slices.Compact(nets)
}

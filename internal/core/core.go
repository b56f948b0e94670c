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

	outs := make([]groupOutcome, len(groups))
	w := &worker{rec: opt.Observer}
	for gi := range groups {
		outs[gi] = runGroup(nl, opt, gi, groups[gi], w)
		if opt.FailFast && outs[gi].failure != nil {
			break
		}
	}
	return mergeOutcomes(len(groups), outs)
}

// worker is the identification state that one sequential run or one
// parallel worker carries from group to group, so that groups reset it
// instead of rebuilding it: the propagator clears its undo trail on every
// apply, the builder forgets its keys and restarts its interner's numbering
// for each multi-net group, and the trial builder, which views the
// propagator's Reduction with an interner of its own, does the same for
// every trial. Each is created on first use. rec is where the worker's
// groups record: Options.Observer itself on the sequential path, a private
// recorder merged into it after the pool drains on the parallel path (nil
// when the run is not observed).
type worker struct {
	prop  *reduce.Propagator
	b     *cone.Builder
	trial *cone.Builder
	rec   *obs.Recorder
}

func newPipeline(nl *netlist.Netlist, opt Options, w *worker) *pipeline {
	return &pipeline{
		worker: w,
		nl:     nl,
		opt:    opt,
		result: &Result{},
		stage:  "init",
	}
}

// groupOutcome is one adjacency group's contribution to the run: its partial
// Result and the recovered failure if its pipeline panicked. A zero outcome
// (nil res) marks a group that never ran because FailFast stopped the run
// first.
type groupOutcome struct {
	res     *Result
	failure *guard.GroupFailure
}

// runGroup runs one adjacency group through a fresh pipeline inside the
// group's failure domain, on the state of the worker w running it. A panic
// anywhere in the group's pipeline — including construction — is recovered
// here and becomes a GroupFailure: the group's partial result is discarded
// wholesale (replaced by an empty Result), and the caller merges the
// surviving groups as if the failed one had produced no words.
//
// The group records into w.rec behind a snapshot: the recorder is a
// fixed-size value, copied before the group runs. A panic restores the copy
// and counts the recovery, so a failed group's observations are discarded
// too. It also drops w's propagator and both builders, so a propagation or
// keying walk cut short never reaches the next group.
func runGroup(nl *netlist.Netlist, opt Options, gi int, nets []netlist.NetID, w *worker) (out groupOutcome) {
	var snap obs.Recorder
	if w.rec != nil {
		snap = *w.rec
	}
	var p *pipeline
	defer func() {
		if v := recover(); v != nil {
			stage := "init"
			if p != nil {
				stage = p.stage
			}
			out.failure = guard.NewGroupFailure(gi, stage, v)
			out.res = &Result{}
			w.prop, w.b, w.trial = nil, nil, nil
			if w.rec != nil {
				*w.rec = snap
				w.rec.Add(obs.CtrPanicsRecovered, 1)
			}
		}
	}()
	p = newPipeline(nl, opt, w)
	p.group = gi
	if !p.cancelled() {
		p.processGroup(nets)
	}
	if len(p.used) > 0 {
		p.result.UsedControlSignals = sortedNets(p.used)
	}
	if len(p.found) > 0 {
		p.result.FoundControlSignals = sortedNets(p.found)
	}
	if len(p.result.Degradations) > 0 {
		p.result.Stats.DegradedGroups = 1
	}
	out.res = p.result
	return out
}

// mergeOutcomes folds per-group outcomes into one Result, in group order, so
// the output is identical between the sequential and parallel paths
// regardless of worker scheduling. Failed groups contribute their failure
// record; fail-fast-skipped groups (zero outcomes) contribute nothing.
func mergeOutcomes(nGroups int, outs []groupOutcome) *Result {
	merged := &Result{}
	merged.Stats.Groups = nGroups
	nWords := 0
	for _, out := range outs {
		if out.res != nil {
			nWords += len(out.res.Words)
		}
	}
	if nWords > 0 {
		merged.Words = make([]Word, 0, nWords)
	}
	used := make(map[netlist.NetID]bool)
	found := make(map[netlist.NetID]bool)
	for _, out := range outs {
		if out.failure != nil {
			merged.Failures = append(merged.Failures, *out.failure)
		}
		r := out.res
		if r == nil {
			continue
		}
		merged.Words = append(merged.Words, r.Words...)
		merged.Trace = append(merged.Trace, r.Trace...)
		merged.Stats.Subgroups += r.Stats.Subgroups
		merged.Stats.CandidateBits += r.Stats.CandidateBits
		merged.Stats.Trials += r.Stats.Trials
		merged.Stats.Reductions += r.Stats.Reductions
		merged.Stats.ReducedWords += r.Stats.ReducedWords
		merged.Stats.PartialGroupWords += r.Stats.PartialGroupWords
		merged.Stats.ConesProved += r.Stats.ConesProved
		merged.Stats.ConesRefuted += r.Stats.ConesRefuted
		merged.Stats.ConesUnknown += r.Stats.ConesUnknown
		merged.Stats.Interrupted = merged.Stats.Interrupted || r.Stats.Interrupted
		merged.Stats.DegradedGroups += r.Stats.DegradedGroups
		merged.ReductionChecks = append(merged.ReductionChecks, r.ReductionChecks...)
		merged.Degradations = append(merged.Degradations, r.Degradations...)
		for _, n := range r.UsedControlSignals {
			used[n] = true
		}
		for _, n := range r.FoundControlSignals {
			found[n] = true
		}
	}
	merged.UsedControlSignals = sortedNets(used)
	merged.FoundControlSignals = sortedNets(found)
	return merged
}

// identifyParallel fans adjacency groups out over a worker pool. Each group
// runs in its own failure domain (runGroup), and per-group outcomes merge in
// group order so the output matches the sequential pipeline exactly
// regardless of worker scheduling. Each worker records into its own
// recorder, merged into Options.Observer once the pool drains; sums and
// maxima do not depend on which worker ran which group. Under FailFast,
// workers stop picking up new groups once any group fails; which in-flight
// groups complete depends on scheduling, so a fail-fast parallel result is
// best-effort (the non-fail-fast result is deterministic).
func identifyParallel(nl *netlist.Netlist, opt Options, groups [][]netlist.NetID, workers int) *Result {
	outs := make([]groupOutcome, len(groups))
	states := make([]worker, workers)
	if opt.Observer != nil {
		for i := range states {
			states[i].rec = obs.New()
			if opt.Observer.ProfileLabelsEnabled() {
				states[i].rec.EnableProfileLabels()
			}
		}
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
	for i := range states {
		w := &states[i]
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
				outs[gi] = runGroup(nl, opt, gi, groups[gi], w)
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
	for i := range states {
		opt.Observer.Merge(states[i].rec)
	}
	merged := mergeOutcomes(len(groups), outs)
	merged.Failures = append(merged.Failures, poolFailures...)
	return merged
}

// pipeline runs one adjacency group on the state of the worker running it:
// rec (nil disables observation at ~zero cost), the builder processGroup
// makes or resets for a multi-net group, and the propagator and trial
// builder the trials reuse.
type pipeline struct {
	*worker
	nl  *netlist.Netlist
	opt Options
	// used and found collect the group's control signals; nil until the
	// group finds one, as most groups never do.
	used   map[netlist.NetID]bool
	found  map[netlist.NetID]bool
	result *Result
	// group is the adjacency-group index this pipeline is running (each
	// pipeline instance runs exactly one group; see runGroup).
	group int
	// stage tracks the last entered pipeline stage ("init" before the
	// first); runGroup's recover boundary reads it to attribute a panic.
	stage string
	// groupTrials counts assignment trials across the whole group, the
	// currency of Budgets.MaxTrialsPerGroup.
	groupTrials int
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
		p.result.Trace = append(p.result.Trace, fmt.Sprintf(format, args...))
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
	if p.result.Stats.Interrupted {
		return true
	}
	if p.opt.Context.Err() != nil {
		p.result.Stats.Interrupted = true
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
	var subgroups [][]*cone.BitCone
	p.rec.Do(p.opt.Context, obs.StageMatch, func() {
		p.enterStage(obs.StageMatch.String())
		if len(nets) == 1 {
			// A one-net group is at most a one-bit verified word, and its
			// cone is never compared with another: it needs the root check
			// alone, not an interner, a builder or keys. resolveSubgroup
			// reads only the net of an unkeyed one-bit subgroup.
			if g, kind, ok := cone.RootGate(p.nl, nets[0]); ok {
				p.result.Stats.CandidateBits++
				subgroups = [][]*cone.BitCone{{{Net: nets[0], RootGate: g, RootKind: kind}}}
			}
			return
		}
		// One interner numbering per group: numeric KeyID order sorts
		// subtrees, and through them the order of control signals and
		// trials. The worker's builder, once made, is reset for each group
		// and then hands out the IDs a fresh one would.
		if p.b == nil {
			p.b = cone.NewBuilder(p.nl, cone.NewInterner(), p.opt.Depth)
		} else {
			p.b.Reset()
		}
		var bits []*cone.BitCone
		flush := func() {
			if len(bits) > 0 {
				subgroups = append(subgroups, bits)
				bits = nil
			}
		}
		var prev *cone.BitCone
		for _, net := range nets {
			bc := p.b.Bit(net)
			if bc == nil {
				flush()
				prev = nil
				continue
			}
			p.result.Stats.CandidateBits++
			if prev != nil && !cone.FullMatch(prev, bc) && !cone.PartialMatch(prev, bc) {
				flush()
			}
			bits = append(bits, bc)
			prev = bc
		}
		flush()
	})
	for _, sg := range subgroups {
		if p.cancelled() {
			return
		}
		p.result.Stats.Subgroups++
		p.rec.Max(obs.GaugeSubgroupBits, int64(len(sg)))
		p.resolveSubgroup(sg)
	}
}

// resolveSubgroup turns one subgroup of partially/fully matching bits into
// generated words (§2.4 + §2.5).
func (p *pipeline) resolveSubgroup(bits []*cone.BitCone) {
	if len(bits) == 1 {
		p.emit(Word{Bits: []netlist.NetID{bits[0].Net}, Verified: true})
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
		p.emit(Word{Bits: bitNets(bits), Verified: true})
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
		signals = ctrlsig.Find(p.nl, p.b, dissim, p.opt.Depth-1)
	})
	p.rec.Max(obs.GaugeControlSignals, int64(len(signals)))
	if len(signals) > maxControlSignals {
		signals = signals[:maxControlSignals]
	}
	for _, s := range signals {
		mark(&p.found, s.Net)
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
	if p.result.Stats.Interrupted {
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
		mark(&p.used, ctrls...)
		p.result.Stats.ReducedWords++
		p.tracef("subgroup %s: verified %d-bit word via assignment %s",
			p.nl.NetName(bits[0].Net), len(bits), p.formatAssign(bestTrial.assign))
		if p.opt.VerifyReduction {
			p.rec.Do(p.opt.Context, obs.StageVerify, func() { p.verifyTrial(bits, bestTrial) })
		}
		p.emit(Word{Bits: bitNets(bits), Verified: true, Controls: ctrls, Assignment: bestTrial.assign})
		return
	}

	// No assignment equalized the whole subgroup. If the bits are still
	// strongly cohesive, keep them together as an unverified word.
	if !p.opt.NoPartialGroups && p.cohesive(bits, common) {
		p.result.Stats.PartialGroupWords++
		p.tracef("subgroup %s: emitted as cohesive partial group (%d bits)",
			p.nl.NetName(bits[0].Net), len(bits))
		p.emit(Word{Bits: bitNets(bits)})
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
		mark(&p.used, ctrls...)
		p.result.Stats.ReducedWords++
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
		p.result.Stats.Trials++
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
	p.result.Degradations = append(p.result.Degradations, guard.Degradation{
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
	p.result.Stats.ConesProved += vr.Proved
	p.result.Stats.ConesRefuted += vr.Refuted
	p.result.Stats.ConesUnknown += vr.Unknown
	for _, c := range vr.Checks {
		if c.Result.Verdict == eqcheck.Equivalent {
			continue
		}
		p.result.ReductionChecks = append(p.result.ReductionChecks, ReductionCheck{
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
	for _, bc := range bits {
		p.b.CollectSubtreeNets(bc.Net, p.opt.Depth, scope)
	}
	return len(scope)
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
	if p.prop == nil {
		p.prop = reduce.NewPropagator(p.nl)
	}
	red, err := p.prop.Apply(assign, p.rec)
	if err != nil {
		if p.opt.CollectTrace {
			p.tracef("reduce conflict: %v", err)
		}
		return nil
	}
	p.result.Stats.Reductions++
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

func (p *pipeline) emit(w Word) { p.result.Words = append(p.result.Words, w) }

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

func bitNets(bits []*cone.BitCone) []netlist.NetID {
	out := make([]netlist.NetID, len(bits))
	for i, bc := range bits {
		out[i] = bc.Net
	}
	return out
}

func assignNets(assign map[netlist.NetID]logic.Value) []netlist.NetID {
	out := make([]netlist.NetID, 0, len(assign))
	for n := range assign {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mark adds nets to the set *m, allocating it on first use.
func mark(m *map[netlist.NetID]bool, nets ...netlist.NetID) {
	if *m == nil {
		*m = make(map[netlist.NetID]bool)
	}
	for _, n := range nets {
		(*m)[n] = true
	}
}

func sortedNets(m map[netlist.NetID]bool) []netlist.NetID {
	out := make([]netlist.NetID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Package guard provides the identification pipeline's fault-isolation
// primitives. The pipeline runs once per adjacency group, and a single
// pathological group — a huge dissimilar-subtree cross product, a malformed
// cone from a leniently parsed netlist, an exploding SAT instance — must
// never take down the whole run. Three mechanisms enforce that:
//
//   - Panic boundaries: internal/core wraps every group's pipeline run in a
//     recover boundary and converts panics into structured GroupFailure
//     records (group index, stage, message, stack) merged into the result,
//     so the remaining groups' words are returned intact.
//
//   - Resource budgets: Budgets caps the per-subgroup cone scope, the
//     bit×subtree matching cross product, and the per-group assignment-trial
//     count. A subgroup that exceeds a budget degrades to the cheap
//     full-structural match — the shape-hashing baseline's behavior — and
//     the degradation is itemized as a Degradation record instead of
//     aborting or stalling the run.
//
//   - Deterministic fault injection: Plant arms a one-shot panic at a named
//     pipeline stage (optionally a specific group) that Inject fires on the
//     hot path, so every recovery path is exercised by tests without flaky
//     timing. With nothing armed, Inject costs a single atomic load.
package guard

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// GroupFailure records one recovered panic: the adjacency group whose
// pipeline panicked, the stage it was in, the rendered panic value, and the
// goroutine stack captured at recovery. A failed group contributes no words
// to the run's result — its partial output is discarded wholesale so a
// half-resolved subgroup can never leak into the report.
type GroupFailure struct {
	// Group is the adjacency-group index, in grouping order (the same order
	// results merge in, so it is identical between sequential and parallel
	// runs).
	Group int
	// Stage names the pipeline stage that panicked: "match", "ctrlsig",
	// "trial", "verify", or "init" for failures before the first stage.
	Stage string
	// Message is the rendered panic value.
	Message string
	// Stack is the goroutine stack captured at the recovery point.
	Stack string
}

// String renders the failure on one line (without the stack).
func (f GroupFailure) String() string {
	return fmt.Sprintf("group %d failed at stage %q: %s", f.Group, f.Stage, f.Message)
}

// NewGroupFailure builds the failure record for a recovered panic value v,
// capturing the current goroutine's stack. Call it from inside the deferred
// recover so the stack still shows the panic site.
func NewGroupFailure(group int, stage string, v any) *GroupFailure {
	buf := make([]byte, 16<<10)
	n := runtime.Stack(buf, false)
	return &GroupFailure{
		Group:   group,
		Stage:   stage,
		Message: fmt.Sprint(v),
		Stack:   string(buf[:n]),
	}
}

// Rescue is the standing recover boundary for pool goroutines. It must be
// deferred directly — defer guard.Rescue("pool", onPanic) — so its recover
// call executes in the deferred frame. A recovered panic becomes a
// GroupFailure attributed to AnyGroup (a panic that escaped the per-group
// boundary has no reliable group index) and is handed to onPanic; a nil
// onPanic merely contains the crash. With no panic in flight it is a no-op,
// so it is safe as an unconditional first defer.
func Rescue(stage string, onPanic func(*GroupFailure)) {
	if r := recover(); r != nil {
		f := NewGroupFailure(AnyGroup, stage, r)
		if onPanic != nil {
			onPanic(f)
		}
	}
}

// Budgets bounds per-group pipeline work. Each limit guards one way a
// hostile or degenerate input blows up the per-group cost; exceeding a limit
// degrades the affected subgroup to the cheap full-structural match (see
// Degradation) rather than aborting the run. The zero value means unlimited
// everywhere, preserving historical behavior.
type Budgets struct {
	// MaxConeGates caps the size of one subgroup's fanin-cone scope: the
	// union of the bits' depth-limited cone nets, which bounds the nets
	// that control-signal discovery walks and every trial re-keys. A
	// subgroup whose scope exceeds it skips control-signal discovery and
	// assignment trials.
	MaxConeGates int
	// MaxSubgroupPairs caps the matching cross product of one subgroup:
	// bits × dissimilar subtrees. It is the cheap upper bound on the work
	// control-signal discovery does intersecting subtree net sets.
	MaxSubgroupPairs int
	// MaxTrialsPerGroup caps assignment trials (control assignments
	// propagated, feasible or not) across one whole adjacency group, on top
	// of internal/core's per-subgroup cap, the constant maxTrials (96).
	// When the group budget runs out mid-subgroup, the enumeration stops
	// and the best evidence so far is kept; later subgroups in the group
	// skip trials entirely.
	MaxTrialsPerGroup int
}

// Unlimited reports whether every budget is unset.
func (b Budgets) Unlimited() bool {
	return b.MaxConeGates <= 0 && b.MaxSubgroupPairs <= 0 && b.MaxTrialsPerGroup <= 0
}

// Degradation reasons, one per Budgets field.
const (
	ReasonConeGates     = "max-cone-gates"
	ReasonSubgroupPairs = "max-subgroup-pairs"
	ReasonTrials        = "max-trials-per-group"
)

// Degradation records one budget-triggered degradation: the subgroup kept
// only its full-structural word classes (or, for ReasonTrials, the evidence
// accumulated before the budget ran out) instead of the full control-signal
// analysis.
type Degradation struct {
	// Group is the adjacency-group index, in grouping order.
	Group int
	// Subgroup names the subgroup's first bit net, for human triage.
	Subgroup string
	// Reason is one of the Reason* constants.
	Reason string
	// Detail quantifies the violation, e.g. "scope 5132 nets > budget 4096".
	Detail string
}

// String renders the degradation on one line.
func (d Degradation) String() string {
	return fmt.Sprintf("group %d subgroup %s degraded (%s): %s", d.Group, d.Subgroup, d.Reason, d.Detail)
}

// --- deterministic fault injection ----------------------------------------
//
// Tests arm faults with Plant; the pipeline calls Inject at every stage
// boundary. Each armed fault fires exactly once, panicking with an
// InjectedPanic, so recovery paths are exercised deterministically. The
// registry is global because injection points sit deep inside worker
// goroutines that have no test-controlled configuration path; Plant is a
// test-only API and must be cleaned up with Reset.

// AnyGroup matches every group index when passed to Plant.
const AnyGroup = -1

// InjectedPanic is the value Inject panics with. Stage and Group identify
// the firing injection point (Group is the concrete group index observed at
// the fire site, even for plants armed with AnyGroup).
type InjectedPanic struct {
	Stage string
	Group int
}

// String renders the injected panic value (used as GroupFailure.Message).
func (p InjectedPanic) String() string {
	return fmt.Sprintf("guard: injected fault at stage %q (group %d)", p.Stage, p.Group)
}

type plantKey struct {
	stage string
	group int
}

var (
	// armed counts outstanding shots; Inject's fast path is a single
	// atomic load of it, so production runs (zero plants) pay nothing else.
	armed    atomic.Int32
	plantsMu sync.Mutex
	plants   = make(map[plantKey]int) // key -> remaining shots
)

// Plant arms a one-shot fault at the named stage. group restricts the fault
// to one adjacency group; AnyGroup fires on the first group to reach the
// stage. Test-only: pair every Plant with a deferred Reset.
func Plant(stage string, group int) {
	PlantN(stage, group, 1)
}

// PlantN arms an n-shot fault: the first n Inject calls matching the stage
// and group each panic, the n+1st passes. Re-planting an armed key replaces
// its remaining count rather than accumulating, so arming is idempotent.
// n <= 0 disarms the key. The chaos harness uses multi-shot plants to model
// poison inputs that fail repeatedly and then recover (a breaker's half-open
// probe succeeding after the fault budget is spent).
func PlantN(stage string, group, n int) {
	plantsMu.Lock()
	defer plantsMu.Unlock()
	k := plantKey{stage: stage, group: group}
	armed.Add(int32(n - plants[k]))
	if n <= 0 {
		delete(plants, k)
		return
	}
	plants[k] = n
}

// PlantSpec arms faults from a comma-separated spec, the form the wordidd
// chaos harness passes through a CLI flag into the daemon process:
//
//	spec    = entry { "," entry }
//	entry   = stage [ "@" group ] [ "*" count ]
//
// stage is any injection-point name (pipeline stages like "trial", or the
// service's per-job points like "job:b05a"); group defaults to AnyGroup
// ("*" is also accepted explicitly); count defaults to 1. Example:
//
//	"job:b05a*3,trial@2"
//
// arms three panics for every job whose module is b05a plus one panic in
// adjacency group 2's trial stage.
func PlantSpec(spec string) error {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		stage, count := entry, 1
		// A trailing "*<digits>" is the count; a bare "@*" is the group
		// wildcard, so the count suffix must actually parse as a number.
		if i := strings.LastIndexByte(stage, '*'); i >= 0 && stage[i+1:] != "" {
			if n, err := strconv.Atoi(stage[i+1:]); err == nil {
				if n < 1 {
					return fmt.Errorf("guard: bad fault count in %q", entry)
				}
				stage, count = stage[:i], n
			}
		}
		group := AnyGroup
		if i := strings.LastIndexByte(stage, '@'); i >= 0 {
			g := stage[i+1:]
			if g != "*" {
				n, err := strconv.Atoi(g)
				if err != nil {
					return fmt.Errorf("guard: bad group in %q", entry)
				}
				group = n
			}
			stage = stage[:i]
		}
		if stage == "" || strings.ContainsAny(stage, "*@") {
			return fmt.Errorf("guard: bad stage in %q", entry)
		}
		PlantN(stage, group, count)
	}
	return nil
}

// Reset disarms every planted fault (test cleanup).
func Reset() {
	plantsMu.Lock()
	defer plantsMu.Unlock()
	for k := range plants {
		delete(plants, k)
	}
	armed.Store(0)
}

// Planted returns the number of armed shots across all planted faults.
func Planted() int { return int(armed.Load()) }

// Inject fires a matching armed fault: it panics with an InjectedPanic if
// Plant armed this stage for this group (or for AnyGroup). The fault
// disarms before the panic, so each plant fires exactly once even when the
// stage runs again during recovery testing. With nothing armed the cost is
// one atomic load.
func Inject(stage string, group int) {
	if armed.Load() == 0 {
		return
	}
	if fire(stage, group) {
		panic(InjectedPanic{Stage: stage, Group: group})
	}
}

func fire(stage string, group int) bool {
	plantsMu.Lock()
	defer plantsMu.Unlock()
	for _, k := range [2]plantKey{{stage, group}, {stage, AnyGroup}} {
		if n := plants[k]; n > 0 {
			if n == 1 {
				delete(plants, k)
			} else {
				plants[k] = n - 1
			}
			armed.Add(-1)
			return true
		}
	}
	return false
}

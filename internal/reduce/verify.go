package reduce

// verify.go proves reductions sound: every cone the overlay rewrites is
// checked equivalent to the original cone under the inferred constants, using
// the AIG + SAT equivalence checker. This is the semantic backstop for
// SimplifyGate — an unsound rewrite rule would silently corrupt every
// downstream word match, and here it is caught with a concrete
// counterexample instead.

import (
	"gatewords/internal/aig"
	"gatewords/internal/eqcheck"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// constView exposes the ORIGINAL gate structure under the reduction's
// inferred constants: DriverOf/GateKind/GateInputs come from the base
// netlist, NetConst from the reduction. Mitering it against the Reduction
// overlay (rewritten structure, same constants) isolates exactly what
// verification must prove — that the structural rewrites preserve the cone
// function given the constant environment. The constants themselves must be
// substituted on both sides: backward implication infers values for nets
// inside and on the frontier of cones, and the rewritten side already assumed
// them.
type constView struct {
	nl *netlist.Netlist
	r  *Reduction
}

func (v constView) DriverOf(n netlist.NetID) netlist.GateID {
	if v.r.vals[n].Known() {
		return netlist.NoGate
	}
	return v.nl.Net(n).Driver
}

func (v constView) GateKind(g netlist.GateID) logic.Kind { return v.nl.Gate(g).Kind }

func (v constView) GateInputs(g netlist.GateID, buf []netlist.NetID) []netlist.NetID {
	return append(buf, v.nl.Gate(g).Inputs...)
}

func (v constView) NetConst(n netlist.NetID) (logic.Value, bool) { return v.r.NetConst(n) }

var _ netlist.View = constView{}

// ConeCheck is the verification outcome for one cone root.
type ConeCheck struct {
	Root netlist.NetID
	Name string // net name of the root
	eqcheck.Result
}

// VerifyResult aggregates the per-cone outcomes of VerifyCones.
type VerifyResult struct {
	Checks  []ConeCheck
	Proved  int // cones proved equivalent
	Refuted int // cones with a counterexample — a soundness bug
	Unknown int // cones the budget could not decide
}

// Sound reports whether no cone was refuted (Unknown cones do not count
// against soundness; they are reported, not proved).
func (r *VerifyResult) Sound() bool { return r.Refuted == 0 }

// VerifyCones proves, for each root, that the depth-limited fanin cone under
// the reduction overlay (rewritten gates, dropped pins) computes the same
// function as the original cone under the same inferred constants.
//
// Both sides are lowered into one shared AIG over the cut computed on the
// original-structure side. That cut is valid for the overlay too: SimplifyGate
// only ever drops pins or re-tags kinds, so every net the rewritten cone
// references is reachable in the original cone, and the shared frontier
// variables line up by construction. A root whose value the reduction
// inferred constant is checked as the constant against the original cone.
func (r *Reduction) VerifyCones(roots []netlist.NetID, depth int, opt eqcheck.Options) *VerifyResult {
	g := aig.New()
	cl := aig.NewConeLowerer(g, r.nl.NetName)
	orig := constView{nl: r.nl, r: r}
	// One solver serves every root and keeps its storage; each root's miter
	// that reaches the SAT stage runs on an emptied engine, so a root's check
	// does not depend on the roots checked before it.
	solver := eqcheck.NewSolver(g, opt)
	var cut netlist.Cone
	res := &VerifyResult{}
	for _, root := range roots {
		check := ConeCheck{Root: root, Name: r.nl.NetName(root)}
		if opt.Cancelled() {
			// Deadline-bounded sweeps stay a strict prefix: every root past
			// the cancellation point is reported Unknown/"cancelled", never
			// silently dropped.
			check.Result = eqcheck.CancelledResult()
			res.Unknown++
			res.Checks = append(res.Checks, check)
			continue
		}
		cut.Walk(orig, root, depth)
		la, errA := cl.LowerCut(orig, root, &cut)
		lb, errB := cl.LowerCut(r, root, &cut)
		if errA != nil || errB != nil {
			// Lowering failure (cycle, bad gate): report Unknown rather than
			// abort the whole verification sweep.
			check.Result = eqcheck.Result{Verdict: eqcheck.Unknown, Stage: "lower"}
		} else {
			check.Result = solver.CheckLits(la, lb)
		}
		switch check.Result.Verdict {
		case eqcheck.Equivalent:
			res.Proved++
		case eqcheck.NotEquivalent:
			res.Refuted++
		default:
			res.Unknown++
		}
		res.Checks = append(res.Checks, check)
	}
	return res
}

// Package scoap computes SCOAP testability scores — combinational
// controllability (CC0/CC1) and observability (CO) — for every net of a
// gate-level netlist, the classic static dataflow analysis of Goldstein's
// SCOAP (and the per-gate scoring behind Trust-Hub Trojan benchmarks).
//
// CC0(n)/CC1(n) estimate how many input assignments are needed to drive net
// n to 0/1; CO(n) estimates how many are needed to propagate n's value to a
// primary output. Both are min-plus dataflow problems: controllability flows
// forward from primary inputs through per-gate-kind transfer functions,
// observability flows backward from primary outputs through pin
// sensitization costs, and flip-flop boundaries add a configurable
// sequential depth cost (the SC0/SC1/SO time-frame charge, collapsed to one
// constant per register crossing). Hard-to-control and hard-to-observe
// outliers are the canonical static tell of inserted Hardware-Trojan
// triggers, which is what internal rules NL5xx and the gatetriage ranking
// consume.
//
// The solver is a deterministic worklist fixed point (SPFA-style: FIFO over
// gates, relaxations strictly decrease a score) with saturating arithmetic;
// Inf means "cannot be controlled/observed" (X sources, dead cones, or
// widened cycles). Every transfer adds at least one, so all dataflow cycles
// — lenient combinational cycles and sequential register feedback alike —
// have positive weight and the fixed point is unique and reached in finitely
// many relaxations. A relaxation budget backstops adversarial inputs: if a
// pass exhausts it, the combinational SCCs still in flight are widened to
// Inf (deterministically, via netlist.CombinationalSCCs), frozen, and the
// pass restarts once. Scores are therefore a pure function of the netlist
// and Config — byte-identical across runs and worker counts.
package scoap

import (
	"fmt"
	"io"
	"math"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Cost is a saturating SCOAP score. Inf is the absorbing top: uncontrollable
// or unobservable.
type Cost uint32

// Inf is the saturated "impossible" score.
const Inf Cost = math.MaxUint32

// add is saturating addition: any sum at or above Inf, or involving Inf,
// stays Inf.
func add(a, b Cost) Cost {
	if a == Inf || b == Inf {
		return Inf
	}
	if s := uint64(a) + uint64(b); s < uint64(Inf) {
		return Cost(s)
	}
	return Inf
}

// min2 returns the smaller cost.
func min2(a, b Cost) Cost {
	if b < a {
		return b
	}
	return a
}

// String renders the cost ("inf" for Inf).
func (c Cost) String() string {
	if c == Inf {
		return "inf"
	}
	return fmt.Sprintf("%d", uint32(c))
}

// Pair is the (CC0, CC1) controllability of one net.
type Pair struct {
	C0, C1 Cost
}

// DefaultSeqCost is the default register-crossing charge: each DFF boundary
// adds one to the score in both directions, the one-time-frame cost of the
// sequential SCOAP measures.
const DefaultSeqCost = 1

// Config tunes the analysis. The zero value is ready to use.
type Config struct {
	// SeqCost is the cost added when a score crosses a flip-flop (forward:
	// CC(Q) = CC(D) + SeqCost; backward: CO(D) = CO(Q) + SeqCost). Values
	// below 1 select DefaultSeqCost — a zero-cost crossing would give
	// sequential feedback loops zero weight and break convergence.
	SeqCost int
	// EvalBudget caps gate relaxations per pass; 0 selects 64×gates + 256.
	// Exhausting it widens the still-active combinational SCCs to Inf and
	// restarts the pass once (Result.WidenedSCCs counts them).
	EvalBudget int64
}

func (c Config) seqCost() Cost {
	if c.SeqCost < 1 {
		return DefaultSeqCost
	}
	if c.SeqCost > int(Inf) {
		return Inf
	}
	return Cost(c.SeqCost)
}

func (c Config) budget(gates int) int64 {
	if c.EvalBudget > 0 {
		return c.EvalBudget
	}
	return 64*int64(gates) + 256
}

// Result holds the computed scores, indexed by netlist.NetID.
type Result struct {
	CC0, CC1 []Cost
	CO       []Cost
	// HasPO records whether observability was seeded: with no primary
	// outputs every CO is Inf and observability-based verdicts should be
	// skipped.
	HasPO bool
	// Iterations counts gate relaxation steps across the forward and
	// backward passes (the scoap_iterations counter).
	Iterations int64
	// WidenedSCCs counts combinational SCCs widened to Inf because a pass
	// exhausted its relaxation budget (the scoap_widened_sccs counter).
	WidenedSCCs int
}

// Controllability returns the (CC0, CC1) pair of a net.
func (r *Result) Controllability(n netlist.NetID) Pair {
	return Pair{C0: r.CC0[n], C1: r.CC1[n]}
}

// Observability returns the CO score of a net.
func (r *Result) Observability(n netlist.NetID) Cost { return r.CO[n] }

// Testability is the combined per-net score CC0+CC1+CO (saturating) — the
// scalar the NL5xx rules and the triage ranking threshold on. Higher is
// harder to test; Inf means the net can never be fully exercised.
func (r *Result) Testability(n netlist.NetID) Cost {
	return add(add(r.CC0[n], r.CC1[n]), r.CO[n])
}

// AlwaysX reports whether the net can be driven to neither 0 nor 1 — it is
// permanently unknown (downstream of an X source, or inside a widened
// cycle).
func (r *Result) AlwaysX(n netlist.NetID) bool {
	return r.CC0[n] == Inf && r.CC1[n] == Inf
}

// Compute runs the full analysis over nl. It never mutates the netlist and
// accepts leniently parsed netlists: malformed gates (bad arities) score Inf,
// multi-driven nets keep their recorded driver, and combinational cycles
// either converge through the positive-weight fixed point or widen.
func Compute(nl *netlist.Netlist, cfg Config) *Result {
	nNets, nGates := nl.NetCount(), nl.GateCount()
	res := &Result{
		CC0: make([]Cost, nNets),
		CC1: make([]Cost, nNets),
		CO:  make([]Cost, nNets),
	}
	for i := 0; i < nNets; i++ {
		res.CC0[i], res.CC1[i], res.CO[i] = Inf, Inf, Inf
	}
	st := &solver{nl: nl, cfg: cfg, res: res, inQ: make([]bool, nGates)}
	st.forward()
	st.backward()
	return res
}

// solver carries one Compute run's worklist state.
type solver struct {
	nl   *netlist.Netlist
	cfg  Config
	res  *Result
	inQ  []bool
	q    []netlist.GateID // FIFO ring storage (reset per pass)
	head int

	frozen []bool // per-net: pinned at Inf by widening
	inbuf  []Pair
}

func (s *solver) resetQueue() {
	s.q = s.q[:0]
	s.head = 0
	for i := range s.inQ {
		s.inQ[i] = false
	}
}

func (s *solver) push(g netlist.GateID) {
	if s.inQ[g] {
		return
	}
	s.inQ[g] = true
	s.q = append(s.q, g)
}

func (s *solver) pop() (netlist.GateID, bool) {
	if s.head >= len(s.q) {
		return netlist.NoGate, false
	}
	g := s.q[s.head]
	s.head++
	s.inQ[g] = false
	// Compact the ring occasionally so a long run does not hold the whole
	// history live.
	if s.head > 4096 && s.head*2 > len(s.q) {
		s.q = append(s.q[:0], s.q[s.head:]...)
		s.head = 0
	}
	return g, true
}

// seedAll enqueues every gate in ID order — the deterministic initial
// frontier of each pass.
func (s *solver) seedAll() {
	s.resetQueue()
	for gi := 0; gi < s.nl.GateCount(); gi++ {
		s.push(netlist.GateID(gi))
	}
}

// forward computes CC0/CC1: primary inputs cost 1, each gate applies its
// kind's controllability transfer, DFFs charge the sequential crossing.
func (s *solver) forward() {
	nl, res := s.nl, s.res
	for ni := 0; ni < nl.NetCount(); ni++ {
		if nl.Net(netlist.NetID(ni)).IsPI {
			res.CC0[ni], res.CC1[ni] = 1, 1
		}
	}
	s.runPass(s.relaxForward, func(n netlist.NetID) {
		res.CC0[n], res.CC1[n] = Inf, Inf
	}, func() {
		// Restart: re-seed PI costs (frozen nets stay Inf).
		for ni := 0; ni < nl.NetCount(); ni++ {
			id := netlist.NetID(ni)
			if s.frozen[id] {
				res.CC0[ni], res.CC1[ni] = Inf, Inf
				continue
			}
			res.CC0[ni], res.CC1[ni] = Inf, Inf
			if nl.Net(id).IsPI {
				res.CC0[ni], res.CC1[ni] = 1, 1
			}
		}
	})
}

// relaxForward recomputes one gate's output controllability from its current
// input scores; it returns the gates to re-examine when the score dropped.
func (s *solver) relaxForward(g netlist.GateID) bool {
	nl, res := s.nl, s.res
	gate := nl.Gate(g)
	out := gate.Output
	if out < 0 || int(out) >= len(res.CC0) || (s.frozen != nil && s.frozen[out]) {
		return false
	}
	var next Pair
	if gate.Kind == logic.DFF {
		if len(gate.Inputs) != 1 {
			return false
		}
		d := gate.Inputs[0]
		sc := s.cfg.seqCost()
		next = Pair{C0: add(res.CC0[d], sc), C1: add(res.CC1[d], sc)}
	} else {
		s.inbuf = s.inbuf[:0]
		for _, in := range gate.Inputs {
			s.inbuf = append(s.inbuf, Pair{C0: res.CC0[in], C1: res.CC1[in]})
		}
		next = CtrlTransfer(gate.Kind, s.inbuf)
	}
	improved := false
	if next.C0 < res.CC0[out] {
		res.CC0[out] = next.C0
		improved = true
	}
	if next.C1 < res.CC1[out] {
		res.CC1[out] = next.C1
		improved = true
	}
	if improved {
		for _, f := range nl.Net(out).Fanout {
			if f >= 0 && int(f) < nl.GateCount() {
				s.push(f)
			}
		}
	}
	return improved
}

// backward computes CO: primary outputs cost 0, each gate charges the pin
// sensitization cost of propagating an input to its output, DFFs charge the
// sequential crossing from Q back to D.
func (s *solver) backward() {
	nl, res := s.nl, s.res
	seedPOs := func() {
		for ni := 0; ni < nl.NetCount(); ni++ {
			id := netlist.NetID(ni)
			res.CO[ni] = Inf
			if s.frozen != nil && s.frozen[id] {
				continue
			}
			if nl.Net(id).IsPO {
				res.CO[ni] = 0
				res.HasPO = true
			}
		}
	}
	seedPOs()
	if !res.HasPO {
		return
	}
	s.runPass(s.relaxBackward, func(n netlist.NetID) {
		res.CO[n] = Inf
	}, seedPOs)
}

// relaxBackward propagates observability from a gate's output net to its
// input nets.
func (s *solver) relaxBackward(g netlist.GateID) bool {
	nl, res := s.nl, s.res
	gate := nl.Gate(g)
	out := gate.Output
	if out < 0 || int(out) >= len(res.CO) {
		return false
	}
	coOut := res.CO[out]
	improved := false
	relax := func(in netlist.NetID, co Cost) {
		if s.frozen != nil && s.frozen[in] {
			return
		}
		if co < res.CO[in] {
			res.CO[in] = co
			if d := nl.Net(in).Driver; d != netlist.NoGate {
				s.push(d)
			}
			improved = true
		}
	}
	if gate.Kind == logic.DFF {
		if len(gate.Inputs) == 1 {
			relax(gate.Inputs[0], add(coOut, s.cfg.seqCost()))
		}
		return improved
	}
	s.inbuf = s.inbuf[:0]
	for _, in := range gate.Inputs {
		s.inbuf = append(s.inbuf, Pair{C0: res.CC0[in], C1: res.CC1[in]})
	}
	for pin, in := range gate.Inputs {
		if in < 0 || int(in) >= len(res.CO) {
			continue
		}
		relax(in, ObsTransfer(gate.Kind, pin, s.inbuf, coOut))
	}
	return improved
}

// runPass drains the worklist under the relaxation budget. If the budget is
// exhausted, the combinational SCCs still in flight are widened: every
// member gate's output net is reset by widen() and frozen at Inf, the pass
// restarts once via reseed(), and a second exhaustion hard-stops (the scores
// then under-approximate the fixed point but remain deterministic).
func (s *solver) runPass(relax func(netlist.GateID) bool, widen func(netlist.NetID), reseed func()) {
	budget := s.cfg.budget(s.nl.GateCount())
	s.seedAll()
	for restart := 0; ; restart++ {
		spent := int64(0)
		for {
			g, ok := s.pop()
			if !ok {
				return
			}
			spent++
			s.res.Iterations++
			relax(g)
			if spent >= budget {
				break
			}
		}
		if restart >= 1 {
			return // second exhaustion: stop deterministically
		}
		if !s.widenActiveSCCs(widen) {
			return // budget spent outside any combinational cycle: accept
		}
		reseed()
		s.seedAll()
	}
}

// widenActiveSCCs freezes the nets of every combinational SCC that still has
// a member gate queued, reporting whether anything was widened.
func (s *solver) widenActiveSCCs(widen func(netlist.NetID)) bool {
	if s.frozen == nil {
		s.frozen = make([]bool, s.nl.NetCount())
	}
	widened := false
	for _, comp := range s.nl.CombinationalSCCs() {
		active := false
		for _, g := range comp {
			if s.inQ[g] {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		for _, g := range comp {
			out := s.nl.Gate(g).Output
			if out >= 0 && int(out) < len(s.frozen) && !s.frozen[out] {
				s.frozen[out] = true
				widen(out)
			}
		}
		s.res.WidenedSCCs++
		widened = true
	}
	return widened
}

// WriteText renders one line per net — "<name> cc0 cc1 co" in net ID
// (declaration) order — followed by a summary line. The rendering is
// byte-deterministic and is what the committed b14a golden pins.
func (r *Result) WriteText(w io.Writer, nl *netlist.Netlist) error {
	for ni := 0; ni < nl.NetCount(); ni++ {
		id := netlist.NetID(ni)
		if _, err := fmt.Fprintf(w, "%s %s %s %s\n",
			nl.NetName(id), r.CC0[ni], r.CC1[ni], r.CO[ni]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# nets=%d iterations=%d widened_sccs=%d has_po=%v\n",
		nl.NetCount(), r.Iterations, r.WidenedSCCs, r.HasPO)
	return err
}

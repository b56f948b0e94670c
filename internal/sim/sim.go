// Package sim is a levelized event-driven three-valued logic simulator for
// the gatewords netlist model (X-pessimistic evaluation, sequential
// stepping). It is a test oracle: no production code imports it, and it
// evaluates netlists directly, sharing no code with the AIG lowering of
// internal/aig or the CNF encoding and SAT solver of internal/eqcheck. Its
// own tests use Compare to check that reductions preserve the surviving
// logic, and three other packages' tests use it as an independent
// reference:
//
//   - synth tests check that synthesized netlists implement their RTL intent;
//   - eqcheck tests replay every counterexample CheckNetlists reports;
//   - FuzzEqcheck enumerates every assignment of small netlist pairs and
//     checks each decided equivalence verdict against the simulated outputs.
package sim

import (
	"fmt"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Simulator evaluates one netlist. Create with New, drive primary inputs
// with SetInput, call Settle to propagate, Step to clock the flip-flops.
type Simulator struct {
	nl    *netlist.Netlist
	vals  []logic.Value
	level []int32 // per-gate topological level (DFFs level 0, unused)
	dirty []bool  // per-gate pending re-evaluation
	queue buckets
	dffs  []netlist.GateID
	state []logic.Value // per-DFF stored value, parallel to dffs
	inbuf []logic.Value
}

// New builds a simulator; it fails if the combinational logic is cyclic.
func New(nl *netlist.Netlist) (*Simulator, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		nl:    nl,
		vals:  make([]logic.Value, nl.NetCount()),
		level: make([]int32, nl.GateCount()),
		dirty: make([]bool, nl.GateCount()),
		dffs:  nl.DFFs(),
	}
	s.state = make([]logic.Value, len(s.dffs))
	maxLevel := int32(0)
	for _, g := range order {
		lvl := int32(0)
		for _, in := range nl.Gate(g).Inputs {
			d := nl.Net(in).Driver
			if d != netlist.NoGate && nl.Gate(d).Kind != logic.DFF {
				if s.level[d]+1 > lvl {
					lvl = s.level[d] + 1
				}
			}
		}
		s.level[g] = lvl
		if lvl > maxLevel {
			maxLevel = lvl
		}
	}
	s.queue.init(int(maxLevel) + 1)
	s.Reset()
	return s, nil
}

// Reset sets every net and every flip-flop to X and schedules a full
// evaluation.
func (s *Simulator) Reset() {
	for i := range s.vals {
		s.vals[i] = logic.X
	}
	for i := range s.state {
		s.state[i] = logic.X
	}
	for gi := 0; gi < s.nl.GateCount(); gi++ {
		g := netlist.GateID(gi)
		if s.nl.Gate(g).Kind != logic.DFF {
			s.schedule(g)
		}
	}
}

// SetInput drives a primary input net. It returns an error for nets that
// are not primary inputs.
func (s *Simulator) SetInput(n netlist.NetID, v logic.Value) error {
	net := s.nl.Net(n)
	if !net.IsPI {
		return fmt.Errorf("sim: net %q is not a primary input", net.Name)
	}
	s.setNet(n, v)
	return nil
}

// SetState forces the stored value of the i'th flip-flop (in file order).
func (s *Simulator) SetState(i int, v logic.Value) {
	s.state[i] = v
	g := s.nl.Gate(s.dffs[i])
	s.setNet(g.Output, v)
}

// StateCount returns the number of flip-flops.
func (s *Simulator) StateCount() int { return len(s.dffs) }

// Value returns the current value of a net.
func (s *Simulator) Value(n netlist.NetID) logic.Value { return s.vals[n] }

// Settle propagates pending changes through the combinational logic.
func (s *Simulator) Settle() {
	for {
		g, ok := s.queue.pop()
		if !ok {
			return
		}
		s.dirty[g] = false
		gate := s.nl.Gate(g)
		s.inbuf = s.inbuf[:0]
		for _, in := range gate.Inputs {
			s.inbuf = append(s.inbuf, s.vals[in])
		}
		s.setNetFromGate(gate.Output, logic.Eval(gate.Kind, s.inbuf))
	}
}

// Step latches every flip-flop's D input into its state (after settling the
// combinational logic), then propagates the new outputs: one clock edge.
func (s *Simulator) Step() {
	s.Settle()
	next := make([]logic.Value, len(s.dffs))
	for i, g := range s.dffs {
		next[i] = s.vals[s.nl.Gate(g).Inputs[0]]
	}
	for i, g := range s.dffs {
		s.state[i] = next[i]
		s.setNet(s.nl.Gate(g).Output, next[i])
	}
	s.Settle()
}

func (s *Simulator) setNet(n netlist.NetID, v logic.Value) {
	if s.vals[n] == v {
		return
	}
	s.vals[n] = v
	for _, f := range s.nl.Net(n).Fanout {
		if s.nl.Gate(f).Kind == logic.DFF {
			continue // captured only on Step
		}
		s.schedule(f)
	}
}

func (s *Simulator) setNetFromGate(n netlist.NetID, v logic.Value) { s.setNet(n, v) }

func (s *Simulator) schedule(g netlist.GateID) {
	if s.dirty[g] {
		return
	}
	s.dirty[g] = true
	s.queue.push(int(s.level[g]), g)
}

// buckets is a monotone level-ordered work queue: gates are processed in
// topological level order so each settles once per wave.
type buckets struct {
	lists [][]netlist.GateID
	cur   int
	n     int
}

func (b *buckets) init(levels int) {
	b.lists = make([][]netlist.GateID, levels)
	b.cur = 0
	b.n = 0
}

func (b *buckets) push(level int, g netlist.GateID) {
	b.lists[level] = append(b.lists[level], g)
	if level < b.cur {
		b.cur = level
	}
	b.n++
}

func (b *buckets) pop() (netlist.GateID, bool) {
	if b.n == 0 {
		b.cur = 0
		return netlist.NoGate, false
	}
	for b.cur < len(b.lists) {
		l := b.lists[b.cur]
		if len(l) == 0 {
			b.cur++
			continue
		}
		g := l[len(l)-1]
		b.lists[b.cur] = l[:len(l)-1]
		b.n--
		return g, true
	}
	b.cur = 0
	return netlist.NoGate, false
}

package reduce

import (
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// The helpers below scan a reduction whole, so they are defined only for a
// whole-netlist apply (Propagator.Apply), never for a scoped one.

// assignedCount returns the number of nets with inferred constants.
func assignedCount(r *Reduction) int { return len(r.trail) }

// removedGateCount returns the number of combinational gates whose output
// became constant (and which therefore disappear from the reduced circuit).
func removedGateCount(r *Reduction) int {
	c := 0
	for gi := 0; gi < r.nl.GateCount(); gi++ {
		g := r.nl.Gate(netlist.GateID(gi))
		if g.Kind != logic.DFF && r.vals[g.Output].Known() {
			c++
		}
	}
	return c
}

// dirtyRoots returns deterministic verification roots for r: the output
// nets of every gate the overlay rewrites — gates with at least one
// constant-valued input whose output stayed live. These are exactly the
// places SimplifyGate's rewrite rules fire, so proving these cones proves
// the overlay sound. Roots are returned in net-ID order.
func dirtyRoots(r *Reduction) []netlist.NetID {
	var roots []netlist.NetID
	for gi := 0; gi < r.nl.GateCount(); gi++ {
		gate := r.nl.Gate(netlist.GateID(gi))
		if gate.Kind == logic.DFF || r.vals[gate.Output].Known() {
			continue
		}
		for _, in := range gate.Inputs {
			if r.vals[in].Known() {
				roots = append(roots, gate.Output)
				break
			}
		}
	}
	return roots
}

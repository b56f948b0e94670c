package netlist

import (
	"errors"
	"fmt"

	"gatewords/internal/logic"
)

// Violation codes produced by StructuralViolations. They are the shared
// vocabulary between Validate (which joins them into one error) and the
// error-severity rules of internal/netlint (which map each code to a stable
// rule ID).
const (
	CodeArity        = "arity"         // gate input count invalid for its kind
	CodeBadOutput    = "bad-output"    // gate output is not a valid net ID
	CodeBadInput     = "bad-input"     // gate input is not a valid net ID
	CodeDriverIndex  = "driver-index"  // driver/output cross-index mismatch
	CodeDupGateName  = "dup-gate-name" // two gates share a non-empty name
	CodeUndriven     = "undriven"      // undriven net that is not a primary input
	CodeDrivenPI     = "driven-pi"     // net both driven and marked primary input
	CodeBadFanout    = "bad-fanout"    // fanout entry is not a valid gate ID
	CodeFanoutReader = "fanout-reader" // fanout gate does not read the net
	CodeMultiDriver  = "multi-driver"  // more than one gate drives a net
	CodeInvalidKind  = "invalid-kind"  // gate kind is not a real cell
)

// Violation is one structural defect, with enough identity for a diagnostic
// engine to attach gate and net names. Gate is NoGate for net-scoped
// violations; Net is NoNet for gate-scoped ones. Msg is the human-readable
// description without the "netlist <name>:" prefix.
type Violation struct {
	Code string
	Gate GateID
	Net  NetID
	Msg  string
}

// ExtraDriver records a driver that lost the race for a net: the lenient
// construction path (AddGateLenient) keeps the first driver authoritative
// and appends later ones here so a linter can report the multi-drive.
type ExtraDriver struct {
	Net  NetID
	Gate GateID
}

// AddGateLenient is AddGate for diagnostic front ends: instead of rejecting
// a structurally invalid gate (bad arity, multiply-driven output) it records
// the gate anyway so that StructuralViolations can report every defect in
// one pass. The first driver of a net stays authoritative; later drivers are
// recorded as ExtraDrivers. Out-of-range net IDs are kept on the gate but
// not cross-indexed. The returned gate is real: it appears in GateCount and
// file order. A gate AddGate would refuse makes the netlist Irregular.
func (nl *Netlist) AddGateLenient(name string, kind logic.Kind, output NetID, inputs ...NetID) GateID {
	if nl.checkGate(name, kind, output, inputs) != nil {
		nl.irregular = true
	}
	id := GateID(len(nl.gates))
	nl.gates = append(nl.gates, Gate{Name: name, Kind: kind, Inputs: nl.carvePins(inputs), Output: output})
	if nl.validNet(output) {
		if nl.nets[output].Driver == NoGate {
			nl.nets[output].Driver = id
		} else {
			nl.extraDrivers = append(nl.extraDrivers, ExtraDriver{Net: output, Gate: id})
		}
	}
	for _, in := range inputs {
		if nl.validNet(in) {
			nl.addFanout(in, id)
		}
	}
	return id
}

// Irregular reports whether AddGateLenient has accepted a gate that AddGate
// would refuse. A netlist that is not irregular has one driver per driven
// net, and every gate has a valid kind, a valid arity and in-range pins, so
// it can be evaluated. Clone keeps the flag.
func (nl *Netlist) Irregular() bool { return nl.irregular }

// ExtraDrivers returns the multi-driver records accumulated by lenient
// construction, in insertion order. The slice is shared; callers must not
// mutate it.
func (nl *Netlist) ExtraDrivers() []ExtraDriver { return nl.extraDrivers }

// StructuralViolations checks every structural invariant of the netlist —
// pin arities, driver/fanout cross-index consistency, duplicate gate names,
// multiply-driven nets (via ExtraDrivers), undriven non-PI nets — and
// returns all violations instead of stopping at the first. The order is
// deterministic: gate-scoped checks in gate order, then net-scoped checks in
// net order, then multi-driver records in insertion order.
func (nl *Netlist) StructuralViolations() []Violation {
	var out []Violation
	add := func(code string, gate GateID, net NetID, format string, args ...any) {
		out = append(out, Violation{Code: code, Gate: gate, Net: net, Msg: fmt.Sprintf(format, args...)})
	}

	// extra[net] guards the gate-side driver-index check: a gate recorded as
	// an extra driver is reported once, as a multi-driver, not also as an
	// index mismatch.
	extra := make(map[ExtraDriver]bool, len(nl.extraDrivers))
	for _, e := range nl.extraDrivers {
		extra[e] = true
	}

	seenGateName := make(map[string]GateID, len(nl.gates))
	for gi := range nl.gates {
		g := &nl.gates[gi]
		if g.Name != "" {
			if prev, dup := seenGateName[g.Name]; dup {
				add(CodeDupGateName, GateID(gi), NoNet, "duplicate gate name %q (gates %d and %d)", g.Name, prev, gi)
			} else {
				seenGateName[g.Name] = GateID(gi)
			}
		}
		if !g.Kind.IsCombinational() && !g.Kind.IsSequential() {
			add(CodeInvalidKind, GateID(gi), NoNet, "gate %q has invalid kind %s", g.Name, g.Kind)
		} else if !g.Kind.ValidArity(len(g.Inputs)) {
			add(CodeArity, GateID(gi), NoNet, "gate %q: %s with %d inputs", g.Name, g.Kind, len(g.Inputs))
		}
		if !nl.validNet(g.Output) {
			add(CodeBadOutput, GateID(gi), NoNet, "gate %q: invalid output net", g.Name)
		} else if nl.nets[g.Output].Driver != GateID(gi) && !extra[ExtraDriver{Net: g.Output, Gate: GateID(gi)}] {
			add(CodeDriverIndex, GateID(gi), g.Output, "gate %q: output net %q driver index mismatch", g.Name, nl.nets[g.Output].Name)
		}
		for _, in := range g.Inputs {
			if !nl.validNet(in) {
				add(CodeBadInput, GateID(gi), NoNet, "gate %q: invalid input net", g.Name)
			}
		}
	}
	for ni := range nl.nets {
		n := &nl.nets[ni]
		if n.Driver == NoGate && !n.IsPI {
			add(CodeUndriven, NoGate, NetID(ni), "net %q is undriven and not a primary input", n.Name)
		}
		if n.Driver != NoGate {
			if n.IsPI {
				add(CodeDrivenPI, NoGate, NetID(ni), "net %q is both driven and a primary input", n.Name)
			}
			if !nl.validGate(n.Driver) || nl.gates[n.Driver].Output != NetID(ni) {
				add(CodeDriverIndex, NoGate, NetID(ni), "net %q: driver index mismatch", n.Name)
			}
		}
		for _, f := range n.Fanout {
			if !nl.validGate(f) {
				add(CodeBadFanout, NoGate, NetID(ni), "net %q: invalid fanout gate", n.Name)
				continue
			}
			found := false
			for _, in := range nl.gates[f].Inputs {
				if in == NetID(ni) {
					found = true
					break
				}
			}
			if !found {
				add(CodeFanoutReader, NoGate, NetID(ni), "net %q: fanout gate %q does not read it", n.Name, nl.gates[f].Name)
			}
		}
	}
	for _, e := range nl.extraDrivers {
		first := "<unknown>"
		if nl.validNet(e.Net) && nl.validGate(nl.nets[e.Net].Driver) {
			first = nl.gates[nl.nets[e.Net].Driver].Name
		}
		add(CodeMultiDriver, e.Gate, e.Net, "net %q driven by both %q and %q", nl.NetName(e.Net), first, nl.gates[e.Gate].Name)
	}
	return out
}

// joinViolations turns a violation list into one error carrying every
// message, or nil when the list is empty.
func (nl *Netlist) joinViolations(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	errs := make([]error, len(vs))
	for i, v := range vs {
		errs[i] = fmt.Errorf("netlist %s: %s", nl.Name, v.Msg)
	}
	return errors.Join(errs...)
}

// Package netlist provides the in-memory representation of a flattened
// gate-level netlist: named nets, gates with ordered input pins, primary
// ports, and flip-flops. It preserves the gate declaration order of the
// source file, which the word-identification front end depends on (the
// adjacency grouping of DAC'15 §2.2 works on netlist-file line order).
//
// The package also defines View, a read-only functional view of a netlist
// that higher layers (fanin-cone hashing, circuit reduction) share, so that
// a constant-propagated "reduced circuit" can be analyzed without mutating
// or cloning the underlying netlist.
package netlist

import (
	"fmt"
	"strings"

	"gatewords/internal/logic"
)

// NetID indexes a net within a Netlist.
type NetID int32

// GateID indexes a gate within a Netlist.
type GateID int32

// Sentinel IDs for "no net" / "no gate".
const (
	NoNet  NetID  = -1
	NoGate GateID = -1
)

// Net is a single wire. A net has at most one driver; nets without a driver
// are primary inputs (or floating, which Validate rejects unless marked PI).
//
// Fanout holds one entry per reading pin, in the order the readers were
// added, and is kept up to date by every AddGate, so concurrent readers of a
// finished netlist need no synchronisation. Its first two entries live in a
// slab the netlist shares among its nets (see Netlist); appending to a copy
// of the slice never writes into another net's entries.
type Net struct {
	Name   string
	Driver GateID // NoGate if undriven
	Fanout []GateID
	IsPI   bool
	IsPO   bool
}

// Gate is a cell instance. Inputs are ordered pins; for logic.Mux2 the order
// is [sel, a, b], for logic.Aoi21/Oai21 it is [a, b, c], for logic.DFF it is
// [d]. Clock and reset pins are abstracted away: word identification is a
// purely structural analysis of the data path. Inputs lives in a slab the
// netlist shares among its gates, capacity-clipped so that appending to a
// copy of it never writes into another gate's pins.
type Gate struct {
	Name   string
	Kind   logic.Kind
	Inputs []NetID
	Output NetID
}

// Netlist is a flattened gate-level design.
//
// Gate pins and the first two fanout entries of each net are carved from
// slabs: chunks of NetIDs and GateIDs that many gates and nets share, each
// holding a capacity-clipped window, so building a netlist costs a handful
// of allocations rather than one or two per gate. A chunk stays alive while
// any gate or net still refers to it.
type Netlist struct {
	Name   string
	nets   []Net
	gates  []Gate
	byName map[string]NetID
	// extraDrivers records multi-driver conflicts accepted by the lenient
	// construction path (AddGateLenient) for later diagnosis.
	extraDrivers []ExtraDriver
	// irregular is set once AddGateLenient accepts a gate AddGate would
	// refuse (see Irregular).
	irregular bool
	// pinSlab and fanSlab are the current chunks: their lengths are the
	// entries handed out so far, their capacities the chunk sizes.
	pinSlab []NetID
	fanSlab []GateID
}

// New returns an empty netlist with the given design name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]NetID)}
}

// NewSized returns an empty netlist with room reserved for about nets nets,
// gates gates and pins gate input pins, for builders that can estimate
// their size up front (the Verilog parser counts statements). The estimates
// only size the first allocations: a netlist grows past them as usual.
func NewSized(name string, nets, gates, pins int) *Netlist {
	return &Netlist{
		Name:    name,
		nets:    make([]Net, 0, nets),
		gates:   make([]Gate, 0, gates),
		byName:  make(map[string]NetID, nets),
		pinSlab: make([]NetID, 0, pins),
		fanSlab: make([]GateID, 0, 2*nets),
	}
}

// AddNet creates a new net with a unique name and returns its ID.
func (nl *Netlist) AddNet(name string) (NetID, error) {
	if name == "" {
		return NoNet, fmt.Errorf("netlist %s: empty net name", nl.Name)
	}
	if _, dup := nl.byName[name]; dup {
		return NoNet, fmt.Errorf("netlist %s: duplicate net %q", nl.Name, name)
	}
	return nl.appendNet(name), nil
}

// appendNet adds a net whose name is known to be new and non-empty.
func (nl *Netlist) appendNet(name string) NetID {
	id := NetID(len(nl.nets))
	nl.nets = append(nl.nets, Net{Name: name, Driver: NoGate})
	nl.byName[name] = id
	return id
}

// MustNet is AddNet for construction code where duplicate names are a
// programming error.
func (nl *Netlist) MustNet(name string) NetID {
	id, err := nl.AddNet(name)
	if err != nil {
		panic(err)
	}
	return id
}

// EnsureNet returns the existing net named name, creating it if necessary.
// It panics on an empty name, as MustNet does.
func (nl *Netlist) EnsureNet(name string) NetID {
	if id, ok := nl.byName[name]; ok {
		return id
	}
	if name == "" {
		return nl.MustNet(name)
	}
	return nl.appendNet(name)
}

// AddGate appends a gate driving output from inputs. Gate order is
// preserved; it is the "file order" that the word-identification adjacency
// pass relies on.
func (nl *Netlist) AddGate(name string, kind logic.Kind, output NetID, inputs ...NetID) (GateID, error) {
	if err := nl.checkGate(name, kind, output, inputs); err != nil {
		return NoGate, err
	}
	id := GateID(len(nl.gates))
	nl.gates = append(nl.gates, Gate{Name: name, Kind: kind, Inputs: nl.carvePins(inputs), Output: output})
	nl.nets[output].Driver = id
	for _, in := range inputs {
		nl.addFanout(in, id)
	}
	return id, nil
}

// checkGate returns why AddGate refuses a gate: an invalid kind, an arity
// invalid for its kind, an out-of-range pin, or an output already driven.
func (nl *Netlist) checkGate(name string, kind logic.Kind, output NetID, inputs []NetID) error {
	if !kind.IsCombinational() && !kind.IsSequential() {
		return fmt.Errorf("netlist %s: gate %q has invalid kind %s", nl.Name, name, kind)
	}
	if !kind.ValidArity(len(inputs)) {
		return fmt.Errorf("netlist %s: gate %q: %s with %d inputs", nl.Name, name, kind, len(inputs))
	}
	if !nl.validNet(output) {
		return fmt.Errorf("netlist %s: gate %q: bad output net %d", nl.Name, name, output)
	}
	if nl.nets[output].Driver != NoGate {
		return fmt.Errorf("netlist %s: gate %q: net %q already driven", nl.Name, name, nl.nets[output].Name)
	}
	for _, in := range inputs {
		if !nl.validNet(in) {
			return fmt.Errorf("netlist %s: gate %q: bad input net %d", nl.Name, name, in)
		}
	}
	return nil
}

// Slab chunks start at minSlabChunk entries and double up to maxSlabChunk,
// so a netlist built without NewSized's estimate needs about a dozen chunks
// for b18a's 220k pins and leaves less than one chunk unused.
const (
	minSlabChunk = 256
	maxSlabChunk = 1 << 16
)

// nextChunk returns the capacity of the chunk that follows one of capacity
// prev, when need entries must fit in it.
func nextChunk(prev, need int) int {
	return max(need, min(max(2*prev, minSlabChunk), maxSlabChunk))
}

// carvePins copies inputs into the pin slab and returns the copy with its
// capacity clipped to its length. An empty input list stays nil.
func (nl *Netlist) carvePins(inputs []NetID) []NetID {
	if len(inputs) == 0 {
		return nil
	}
	if cap(nl.pinSlab)-len(nl.pinSlab) < len(inputs) {
		nl.pinSlab = make([]NetID, 0, nextChunk(cap(nl.pinSlab), len(inputs)))
	}
	start := len(nl.pinSlab)
	nl.pinSlab = append(nl.pinSlab, inputs...)
	return nl.pinSlab[start:len(nl.pinSlab):len(nl.pinSlab)]
}

// addFanout records gate g as a reader of net n. A net's first reader
// gives it a two-entry window of the fanout slab; a third reader makes
// append move the list to a slice of its own.
func (nl *Netlist) addFanout(n NetID, g GateID) {
	net := &nl.nets[n]
	if cap(net.Fanout) == 0 {
		if cap(nl.fanSlab)-len(nl.fanSlab) < 2 {
			nl.fanSlab = make([]GateID, 0, nextChunk(cap(nl.fanSlab), 2))
		}
		start := len(nl.fanSlab)
		nl.fanSlab = nl.fanSlab[:start+2]
		net.Fanout = nl.fanSlab[start : start : start+2]
	}
	net.Fanout = append(net.Fanout, g)
}

// MustGate is AddGate that panics on error, for construction code.
func (nl *Netlist) MustGate(name string, kind logic.Kind, output NetID, inputs ...NetID) GateID {
	id, err := nl.AddGate(name, kind, output, inputs...)
	if err != nil {
		panic(err)
	}
	return id
}

func (nl *Netlist) validNet(id NetID) bool { return id >= 0 && int(id) < len(nl.nets) }

func (nl *Netlist) validGate(id GateID) bool { return id >= 0 && int(id) < len(nl.gates) }

// MarkPI marks a net as a primary input.
func (nl *Netlist) MarkPI(id NetID) { nl.nets[id].IsPI = true }

// MarkPO marks a net as a primary output.
func (nl *Netlist) MarkPO(id NetID) { nl.nets[id].IsPO = true }

// NetCount returns the number of nets.
func (nl *Netlist) NetCount() int { return len(nl.nets) }

// GateCount returns the number of gates (including DFFs).
func (nl *Netlist) GateCount() int { return len(nl.gates) }

// Net returns the net with the given ID. The pointer stays valid until the
// next AddNet call.
func (nl *Netlist) Net(id NetID) *Net { return &nl.nets[id] }

// Gate returns the gate with the given ID. The pointer stays valid until the
// next AddGate call.
func (nl *Netlist) Gate(id GateID) *Gate { return &nl.gates[id] }

// NetByName returns the ID of the named net.
func (nl *Netlist) NetByName(name string) (NetID, bool) {
	id, ok := nl.byName[name]
	return id, ok
}

// NetName returns the name of a net, or "<none>" for NoNet.
func (nl *Netlist) NetName(id NetID) string {
	if !nl.validNet(id) {
		return "<none>"
	}
	return nl.nets[id].Name
}

// PIs returns the primary input nets in ID order.
func (nl *Netlist) PIs() []NetID {
	var out []NetID
	for i := range nl.nets {
		if nl.nets[i].IsPI {
			out = append(out, NetID(i))
		}
	}
	return out
}

// POs returns the primary output nets in ID order.
func (nl *Netlist) POs() []NetID {
	var out []NetID
	for i := range nl.nets {
		if nl.nets[i].IsPO {
			out = append(out, NetID(i))
		}
	}
	return out
}

// DFFs returns the IDs of all flip-flop gates in file order.
func (nl *Netlist) DFFs() []GateID {
	var out []GateID
	for i := range nl.gates {
		if nl.gates[i].Kind == logic.DFF {
			out = append(out, GateID(i))
		}
	}
	return out
}

// Validate checks structural invariants: pin arities, driver/fanout index
// consistency, no multiply-driven nets, and that every undriven net is a
// primary input or a constant tie-off candidate (we require PI). It is a
// thin wrapper over StructuralViolations — the same checks internal/netlint
// exposes as error-severity rules — and reports every violation at once,
// joined into a single error.
func (nl *Netlist) Validate() error {
	return nl.joinViolations(nl.StructuralViolations())
}

// Clone returns a deep copy of the netlist.
func (nl *Netlist) Clone() *Netlist {
	out := &Netlist{
		Name:         nl.Name,
		nets:         make([]Net, len(nl.nets)),
		gates:        make([]Gate, len(nl.gates)),
		byName:       make(map[string]NetID, len(nl.byName)),
		extraDrivers: append([]ExtraDriver(nil), nl.extraDrivers...),
		irregular:    nl.irregular,
	}
	for i, n := range nl.nets {
		n.Fanout = append([]GateID(nil), n.Fanout...)
		out.nets[i] = n
		out.byName[n.Name] = NetID(i)
	}
	for i, g := range nl.gates {
		g.Inputs = append([]NetID(nil), g.Inputs...)
		out.gates[i] = g
	}
	return out
}

// Stats summarizes a netlist for reporting.
type Stats struct {
	Nets     int
	Gates    int // combinational gates only
	DFFs     int
	PIs      int
	POs      int
	ByKind   map[logic.Kind]int
	MaxFanin int
}

// ComputeStats gathers Stats for the netlist.
func (nl *Netlist) ComputeStats() Stats {
	s := Stats{Nets: len(nl.nets), ByKind: make(map[logic.Kind]int)}
	for i := range nl.gates {
		g := &nl.gates[i]
		s.ByKind[g.Kind]++
		if g.Kind == logic.DFF {
			s.DFFs++
		} else {
			s.Gates++
		}
		if len(g.Inputs) > s.MaxFanin {
			s.MaxFanin = len(g.Inputs)
		}
	}
	for i := range nl.nets {
		if nl.nets[i].IsPI {
			s.PIs++
		}
		if nl.nets[i].IsPO {
			s.POs++
		}
	}
	return s
}

// TopoOrder returns the combinational gates in topological order (inputs
// before outputs), treating DFF outputs and primary inputs as sources. It
// returns an error if the combinational logic contains a cycle.
func (nl *Netlist) TopoOrder() ([]GateID, error) {
	indeg := make([]int, len(nl.gates))
	ready := make([]GateID, 0, len(nl.gates))
	for gi := range nl.gates {
		g := &nl.gates[gi]
		if g.Kind == logic.DFF {
			continue
		}
		deg := 0
		for _, in := range g.Inputs {
			d := nl.nets[in].Driver
			if d != NoGate && nl.gates[d].Kind != logic.DFF {
				deg++
			}
		}
		indeg[gi] = deg
		if deg == 0 {
			ready = append(ready, GateID(gi))
		}
	}
	order := make([]GateID, 0, len(nl.gates))
	for len(ready) > 0 {
		g := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, g)
		// Fanout holds one entry per reading pin, so a gate reading this
		// net on several pins is decremented once per pin — exactly
		// matching how indeg counted it above.
		for _, f := range nl.nets[nl.gates[g].Output].Fanout {
			if nl.gates[f].Kind == logic.DFF {
				continue
			}
			indeg[f]--
			if indeg[f] == 0 {
				ready = append(ready, f)
			}
		}
	}
	want := 0
	for gi := range nl.gates {
		if nl.gates[gi].Kind != logic.DFF {
			want++
		}
	}
	if len(order) != want {
		return nil, fmt.Errorf("netlist %s: combinational cycle detected (%d of %d gates ordered; cycle through %s)",
			nl.Name, len(order), want, nl.describeFirstCycle())
	}
	return order, nil
}

// describeFirstCycle names the member gates of the first combinational
// cycle (smallest gate ID), for TopoOrder's error message. At most five
// names are listed.
func (nl *Netlist) describeFirstCycle() string {
	sccs := nl.CombinationalSCCs()
	if len(sccs) == 0 {
		return "<unknown>"
	}
	cyc := sccs[0]
	const maxNamed = 5
	names := make([]string, 0, maxNamed)
	for _, g := range cyc {
		if len(names) == maxNamed {
			break
		}
		names = append(names, fmt.Sprintf("%q", nl.gates[g].Name))
	}
	s := strings.Join(names, ", ")
	if len(cyc) > maxNamed {
		s += fmt.Sprintf(", +%d more", len(cyc)-maxNamed)
	}
	return s
}

package netlint

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Rule is one registered analysis. ID is stable across releases ("NL003");
// Name is the short human handle ("multi-driver"); Doc is one sentence for
// the -rules listing.
type Rule struct {
	ID       string
	Name     string
	Severity Severity
	Doc      string
	// Semantic marks the NL4xx rules that prove facts with an AIG and SAT;
	// they only run under Config.Semantic (or an explicit Only entry).
	Semantic bool
	run      func(*context)
}

// Rules returns the registry in ID order (a copy; the caller may not mutate
// the registered behavior).
func Rules() []Rule {
	out := make([]Rule, len(rules))
	copy(out, rules)
	return out
}

// rules is the registry. Keep it sorted by ID: the engine runs rules in this
// order and the -rules listing prints it as-is.
var rules = []Rule{
	{
		ID: "NL001", Name: "arity", Severity: Error,
		Doc: "gate has an input count (or kind) invalid for its cell type",
		run: structuralRule(netlist.CodeArity, netlist.CodeInvalidKind),
	},
	{
		ID: "NL002", Name: "graph-consistency", Severity: Error,
		Doc: "driver/fanout cross-indexes are inconsistent or reference invalid IDs",
		run: structuralRule(netlist.CodeBadOutput, netlist.CodeBadInput,
			netlist.CodeDriverIndex, netlist.CodeBadFanout, netlist.CodeFanoutReader),
	},
	{
		ID: "NL003", Name: "multi-driver", Severity: Error,
		Doc: "net is driven by more than one gate",
		run: structuralRule(netlist.CodeMultiDriver),
	},
	{
		ID: "NL004", Name: "undriven", Severity: Error,
		Doc: "net has no driver and is not a primary input",
		run: structuralRule(netlist.CodeUndriven),
	},
	{
		ID: "NL005", Name: "pi-driven", Severity: Error,
		Doc: "net is marked primary input but also has a driver",
		run: structuralRule(netlist.CodeDrivenPI),
	},
	{
		ID: "NL006", Name: "dup-gate-name", Severity: Error,
		Doc: "two gates share the same non-empty instance name",
		run: structuralRule(netlist.CodeDupGateName),
	},
	{
		ID: "NL100", Name: "comb-cycle", Severity: Error,
		Doc: "combinational gates form a cycle not broken by a flip-flop",
		run: runCombCycle,
	},
	{
		ID: "NL200", Name: "floating-net", Severity: Warn,
		Doc: "net has no fanout and is not a primary output",
		run: runFloatingNet,
	},
	{
		ID: "NL201", Name: "dead-logic", Severity: Warn,
		Doc: "gate output cannot reach any primary output (skipped when the design has none)",
		run: runDeadLogic,
	},
	{
		ID: "NL202", Name: "const-foldable", Severity: Info,
		Doc: "gate has tied input pins and folds to a simpler function",
		run: runConstFoldable,
	},
	{
		ID: "NL203", Name: "dup-driver", Severity: Info,
		Doc: "two gates compute the identical function over the identical inputs",
		run: runDupDriver,
	},
	{
		ID: "NL204", Name: "x-source", Severity: Warn,
		Doc: "undriven non-PI net is read by gates, injecting X into the cone below it",
		run: runXSource,
	},
	{
		ID: "NL300", Name: "ctrl-fanout", Severity: Info,
		Doc: "net fanout is anomalously high for the design: candidate control signal (DAC'15 §2.4 seed)",
		run: runCtrlFanout,
	},
	{
		ID: "NL400", Name: "semantic-const", Severity: Warn, Semantic: true,
		Doc: "gate output is provably constant over every input assignment (AIG + SAT proof)",
		run: runSemanticConst,
	},
	{
		ID: "NL401", Name: "semantic-dup", Severity: Info, Semantic: true,
		Doc: "structurally different gates provably compute the identical function (the duplicates NL203 misses)",
		run: runSemanticDup,
	},
	{
		ID: "NL402", Name: "dead-mux-branch", Severity: Warn, Semantic: true,
		Doc: "MUX2 select is provably constant, so one data branch can never be selected",
		run: runDeadMuxBranch,
	},
	{
		ID: "NL500", Name: "low-testability", Severity: Warn,
		Doc: "connected cluster of nets with SCOAP testability ≥ kσ above the design profile: candidate stealthy logic",
		run: runLowTestability,
	},
	{
		ID: "NL501", Name: "scoap-outlier", Severity: Warn,
		Doc: "gate whose SCOAP score deviates >kσ from its adjacency group: misgrouped bit or extra logic riding a word",
		run: runScoapOutlier,
	},
	{
		ID: "NL502", Name: "always-x", Severity: Warn,
		Doc: "driven net is provably uncontrollable (CC0 = CC1 = ∞): downstream logic computes on X",
		run: runAlwaysX,
	},
}

// structuralRule adapts the shared netlist.StructuralViolations checks
// (netlist.Validate joins the same list fail-fast style) into per-code lint
// rules.
func structuralRule(codes ...string) func(*context) {
	want := make(map[string]bool, len(codes))
	for _, c := range codes {
		want[c] = true
	}
	return func(c *context) {
		for _, v := range c.violations() {
			if !want[v.Code] {
				continue
			}
			var gates, nets []string
			if v.Gate != netlist.NoGate {
				gates = []string{c.nl.Gate(v.Gate).Name}
			}
			if v.Net != netlist.NoNet {
				nets = []string{c.nl.NetName(v.Net)}
			}
			c.report(v.Msg, gates, nets)
		}
	}
}

// runCombCycle reports each combinational strongly connected component with
// its member gates named.
func runCombCycle(c *context) {
	for _, comp := range c.nl.CombinationalSCCs() {
		names := make([]string, len(comp))
		for i, g := range comp {
			names[i] = c.nl.Gate(g).Name
		}
		const maxNamed = 6
		listed := names
		more := ""
		if len(listed) > maxNamed {
			listed = listed[:maxNamed]
			more = fmt.Sprintf(", +%d more", len(names)-maxNamed)
		}
		c.report(fmt.Sprintf("combinational cycle of %d gates: %q%s", len(comp), listed, more), names, nil)
	}
}

// runFloatingNet flags zero-fanout nets that are not primary outputs: unread
// inputs, dangling driven wires, and declared-but-unused nets.
func runFloatingNet(c *context) {
	for ni := 0; ni < c.nl.NetCount(); ni++ {
		n := c.nl.Net(netlist.NetID(ni))
		if len(n.Fanout) > 0 || n.IsPO {
			continue
		}
		switch {
		case n.IsPI:
			c.report(fmt.Sprintf("input net %q is never read", n.Name), nil, []string{n.Name})
		case n.Driver != netlist.NoGate:
			c.report(fmt.Sprintf("net %q (driven by %q) has no fanout and is not an output",
				n.Name, c.nl.Gate(n.Driver).Name), []string{c.nl.Gate(n.Driver).Name}, []string{n.Name})
		default:
			c.report(fmt.Sprintf("net %q is declared but unused", n.Name), nil, []string{n.Name})
		}
	}
}

// runDeadLogic reports gates from which no primary output is reachable. The
// liveness wave runs backward from the PO nets through drivers (flip-flops
// included, so state feeding an observable cone is live). Designs with no
// POs skip the rule: everything would be trivially dead.
func runDeadLogic(c *context) {
	pos := c.nl.POs()
	if len(pos) == 0 {
		return
	}
	liveNet := make([]bool, c.nl.NetCount())
	liveGate := make([]bool, c.nl.GateCount())
	queue := make([]netlist.NetID, 0, len(pos))
	for _, po := range pos {
		liveNet[po] = true
		queue = append(queue, po)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d := c.nl.Net(n).Driver
		if d == netlist.NoGate || liveGate[d] {
			continue
		}
		liveGate[d] = true
		for _, in := range c.nl.Gate(d).Inputs {
			if in >= 0 && int(in) < len(liveNet) && !liveNet[in] {
				liveNet[in] = true
				queue = append(queue, in)
			}
		}
	}
	for gi := 0; gi < c.nl.GateCount(); gi++ {
		if liveGate[gi] {
			continue
		}
		g := c.nl.Gate(netlist.GateID(gi))
		c.report(fmt.Sprintf("gate %q (%s) cannot reach any primary output", g.Name, g.Kind),
			[]string{g.Name}, []string{c.nl.NetName(g.Output)})
	}
}

// runConstFoldable flags gates whose tied (duplicated) input pins make them
// foldable: duplicate AND/OR legs are redundant, duplicate XOR legs cancel,
// a MUX2 with identical data pins ignores its select, and tied AOI/OAI
// product legs collapse.
func runConstFoldable(c *context) {
	for gi := 0; gi < c.nl.GateCount(); gi++ {
		g := c.nl.Gate(netlist.GateID(gi))
		var why string
		switch g.Kind {
		case logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor:
			if dup := firstDup(g.Inputs); dup != netlist.NoNet {
				if g.Kind == logic.Xor || g.Kind == logic.Xnor {
					why = fmt.Sprintf("tied input %q: duplicated parity legs cancel", c.nl.NetName(dup))
				} else {
					why = fmt.Sprintf("tied input %q: duplicated leg is redundant", c.nl.NetName(dup))
				}
			}
		case logic.Mux2:
			if len(g.Inputs) == 3 && g.Inputs[1] == g.Inputs[2] {
				why = fmt.Sprintf("both data pins tied to %q: select is ignored", c.nl.NetName(g.Inputs[1]))
			}
		case logic.Aoi21, logic.Oai21:
			if len(g.Inputs) == 3 && g.Inputs[0] == g.Inputs[1] {
				why = fmt.Sprintf("tied product legs %q collapse", c.nl.NetName(g.Inputs[0]))
			}
		}
		if why != "" {
			c.report(fmt.Sprintf("gate %q (%s) is constant-foldable: %s", g.Name, g.Kind, why),
				[]string{g.Name}, []string{c.nl.NetName(g.Output)})
		}
	}
}

// firstDup returns the first net appearing on two pins, or NoNet.
func firstDup(ins []netlist.NetID) netlist.NetID {
	for i := 0; i < len(ins); i++ {
		for j := i + 1; j < len(ins); j++ {
			if ins[i] == ins[j] {
				return ins[i]
			}
		}
	}
	return netlist.NoNet
}

// runDupDriver groups gates by (kind, canonical input list) — inputs sorted
// for commutative kinds — and reports each group of two or more structurally
// identical gates once, in the order of each group's first gate.
func runDupDriver(c *context) {
	index := make(map[string]int) // key -> position in groups
	var groups [][]netlist.GateID
	var key []byte
	for gi := 0; gi < c.nl.GateCount(); gi++ {
		key = appendDupKey(key[:0], c.nl.Gate(netlist.GateID(gi)))
		i, ok := index[string(key)]
		if !ok {
			i = len(groups)
			index[string(key)] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], netlist.GateID(gi))
	}
	for _, grp := range groups {
		if len(grp) < 2 {
			continue
		}
		names := make([]string, len(grp))
		for i, g := range grp {
			names[i] = c.nl.Gate(g).Name
		}
		kind := c.nl.Gate(grp[0]).Kind
		c.report(fmt.Sprintf("gates %q are structurally identical %s drivers over the same inputs", names, kind),
			names, nil)
	}
}

// appendDupKey appends NL203's notion of structural identity to key: the
// gate kind plus the input list, sorted for commutative kinds. Two gates
// with equal keys are the structural duplicates NL203 reports; NL401 uses
// the same key to report only the semantic duplicates NL203 cannot see.
func appendDupKey(key []byte, g *netlist.Gate) []byte {
	var small [8]netlist.NetID
	ins := append(small[:0], g.Inputs...)
	switch g.Kind {
	case logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor:
		slices.Sort(ins)
	}
	key = strconv.AppendInt(key, int64(g.Kind), 10)
	for _, in := range ins {
		key = append(key, ':')
		key = strconv.AppendInt(key, int64(in), 10)
	}
	return key
}

// runXSource reports each undriven non-PI net that is actually read, with
// the size of the cone it poisons: a forward taint wave through gate outputs
// (flip-flops included — an X feeding a D pin corrupts the register).
func runXSource(c *context) {
	for ni := 0; ni < c.nl.NetCount(); ni++ {
		n := c.nl.Net(netlist.NetID(ni))
		if n.Driver != netlist.NoGate || n.IsPI || len(n.Fanout) == 0 {
			continue
		}
		tainted := c.taintFrom(netlist.NetID(ni))
		c.report(fmt.Sprintf("net %q is an X source: undriven but read by %d gates (%d gates in its tainted cone)",
			n.Name, len(n.Fanout), tainted), nil, []string{n.Name})
	}
}

// taintFrom counts the gates reachable forward from src.
func (c *context) taintFrom(src netlist.NetID) int {
	taintedNet := make([]bool, c.nl.NetCount())
	taintedGate := make([]bool, c.nl.GateCount())
	taintedNet[src] = true
	queue := []netlist.NetID{src}
	count := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, f := range c.nl.Net(n).Fanout {
			if f < 0 || int(f) >= len(taintedGate) || taintedGate[f] {
				continue
			}
			taintedGate[f] = true
			count++
			out := c.nl.Gate(f).Output
			if out >= 0 && int(out) < len(taintedNet) && !taintedNet[out] {
				taintedNet[out] = true
				queue = append(queue, out)
			}
		}
	}
	return count
}

// ctrlFanoutMinNets gates NL300: below this many fanout-bearing nets the
// mean/σ statistics are too noisy to call anything anomalous.
const ctrlFanoutMinNets = 20

// runCtrlFanout implements the paper-specific heuristic: a net whose fanout
// sits far above the design's fanout profile (≥ mean + 3σ, and at least 8)
// is a candidate control signal — exactly the shape of the enables and mux
// selects that §2.4's relevant-signal discovery assigns controlling values
// to. Flagging them statically gives the pipeline (and a human) a shortlist
// before any cone matching runs.
func runCtrlFanout(c *context) {
	var sizes []int
	for ni := 0; ni < c.nl.NetCount(); ni++ {
		if f := len(c.nl.Net(netlist.NetID(ni)).Fanout); f > 0 {
			sizes = append(sizes, f)
		}
	}
	if len(sizes) < ctrlFanoutMinNets {
		return
	}
	var sum, sumSq float64
	for _, s := range sizes {
		sum += float64(s)
		sumSq += float64(s) * float64(s)
	}
	mean := sum / float64(len(sizes))
	sigma := math.Sqrt(sumSq/float64(len(sizes)) - mean*mean)
	threshold := mean + 3*sigma
	if threshold < 8 {
		threshold = 8
	}
	for ni := 0; ni < c.nl.NetCount(); ni++ {
		n := c.nl.Net(netlist.NetID(ni))
		if f := len(n.Fanout); float64(f) >= threshold {
			c.report(fmt.Sprintf("net %q fanout %d is anomalous (design mean %.1f, σ %.1f): candidate control signal",
				n.Name, f, mean, sigma), nil, []string{n.Name})
		}
	}
}

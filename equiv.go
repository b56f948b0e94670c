package gatewords

import (
	"fmt"
	"sort"

	"gatewords/internal/eqcheck"
	"gatewords/internal/logic"
)

// EquivalenceOptions tunes the combinational equivalence checker behind
// CheckEquivalence. The zero value uses sensible defaults.
type EquivalenceOptions struct {
	// MaxConflicts caps each SAT query in solver conflicts (0 = default;
	// negative disables SAT, so undecided outputs report "unknown").
	MaxConflicts int
	// SimRounds is the number of 64-lane random simulation rounds run
	// before SAT (0 = default; negative skips simulation).
	SimRounds int
	// Restarts is the Luby restart base interval of the CDCL engine, in
	// conflicts (0 = default; negative disables restarts).
	Restarts int
}

// OutputEquivalence is the verdict for one matched observable: a primary
// output, or a flip-flop next-state function named "ff:" + the gate name.
type OutputEquivalence struct {
	Name string `json:"name"`
	// Verdict is "equivalent", "not-equivalent" or "unknown".
	Verdict string `json:"verdict"`
	// Stage is the pipeline stage that decided: "strash", "sim" or "sat".
	Stage string `json:"stage"`
	// Cex assigns the shared inputs of a refuted output so the two designs
	// disagree on it.
	Cex map[string]bool `json:"cex,omitempty"`
}

// EquivalenceReport is the outcome of comparing two designs output by
// output.
type EquivalenceReport struct {
	// Outputs holds one verdict per name-matched observable, in
	// deterministic order.
	Outputs []OutputEquivalence `json:"outputs"`
	// OnlyInA / OnlyInB list observables present in just one design; they
	// are reported, not compared.
	OnlyInA []string `json:"only_in_a,omitempty"`
	OnlyInB []string `json:"only_in_b,omitempty"`
}

// Verdict aggregates: "not-equivalent" if any output is refuted, else
// "unknown" if any is undecided, else "equivalent".
func (r *EquivalenceReport) Verdict() string {
	worst := "equivalent"
	for _, o := range r.Outputs {
		switch o.Verdict {
		case "not-equivalent":
			return "not-equivalent"
		case "unknown":
			worst = "unknown"
		}
	}
	return worst
}

// CheckEquivalence proves or refutes combinational equivalence of two
// designs, observable by observable. Flip-flops are cut: each next-state
// function is compared as an output and each flip-flop's current state is a
// free input, so the check is one time-frame (sequential equivalence is out
// of scope). Like-named inputs are identified; pin forces named nets to
// constants in both designs before comparison (the nets "$const0" and
// "$const1" are always pinned, matching the tie-off convention of Reduce).
// An error means the designs could not be compared at all — no shared
// observables, or a netlist the AIG cannot model (combinational cycles).
func CheckEquivalence(a, b *Design, pin map[string]bool, opt EquivalenceOptions) (*EquivalenceReport, error) {
	pins := make(map[string]logic.Value, len(pin))
	for name, v := range pin {
		if _, ok := a.nl.NetByName(name); !ok {
			if _, ok := b.nl.NetByName(name); !ok {
				return nil, fmt.Errorf("gatewords: pinned net %q exists in neither design", name)
			}
		}
		if v {
			pins[name] = logic.One
		} else {
			pins[name] = logic.Zero
		}
	}
	res, err := eqcheck.CheckNetlists(a.nl, b.nl, pins, eqcheck.Options{
		MaxConflicts: opt.MaxConflicts,
		SimRounds:    opt.SimRounds,
		Restarts:     opt.Restarts,
	})
	if err != nil {
		return nil, err
	}
	rep := &EquivalenceReport{}
	for _, oc := range res.Outputs {
		rep.Outputs = append(rep.Outputs, OutputEquivalence{
			Name:    oc.Name,
			Verdict: oc.Result.Verdict.String(),
			Stage:   oc.Result.Stage,
			Cex:     oc.Result.Cex,
		})
	}
	rep.OnlyInA = append(rep.OnlyInA, res.OnlyInA...)
	rep.OnlyInB = append(rep.OnlyInB, res.OnlyInB...)
	sort.Strings(rep.OnlyInA)
	sort.Strings(rep.OnlyInB)
	return rep, nil
}

package core_test

import (
	"fmt"
	"slices"
	"testing"

	"gatewords/internal/bench"
	"gatewords/internal/core"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/reduce"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// trialCounts tallies the trials requireScopedTrialsMatch checked: how
// many, how many were infeasible, and how many left a constant outside
// their region, where scoping skipped work; and the nets they assigned, in
// NetID order.
type trialCounts struct {
	trials, failed, skipped int
	assigned                []netlist.NetID
}

// requireScopedTrialsMatch propagates every trial core.EachTrial enumerates
// on nl twice, as the pipeline does (scoped to the trial's region) and
// through the whole netlist, and requires the same error text and, for a
// feasible trial, the same value on every net of the region.
func requireScopedTrialsMatch(t *testing.T, nl *netlist.Netlist) (c trialCounts) {
	t.Helper()
	whole := reduce.NewPropagator(nl)
	core.EachTrial(nl, core.Options{}, func(bits []netlist.NetID, assign map[netlist.NetID]logic.Value, propagate func() (*reduce.Reduction, error)) {
		c.trials++
		for n := range assign {
			if !slices.Contains(c.assigned, n) {
				c.assigned = append(c.assigned, n)
			}
		}
		got, gotErr := propagate()
		want, wantErr := whole.Apply(assign, nil)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("bits %v assign %v: scoped err %v, whole err %v", bits, assign, gotErr, wantErr)
		}
		if wantErr != nil {
			c.failed++
			return
		}
		skipped := false
		for i, in := range core.FaninRegion(nl, bits, assign) {
			n := netlist.NetID(i)
			if in && got.Value(n) != want.Value(n) {
				t.Fatalf("bits %v assign %v: net %s = %s scoped, %s whole", bits, assign, nl.NetName(n), got.Value(n), want.Value(n))
			}
			skipped = skipped || !in && want.Value(n).Known()
		}
		if skipped {
			c.skipped++
		}
	})
	slices.Sort(c.assigned)
	return c
}

// TestScopedTrialsMatchWholeNetlist is the differential test of scoped
// propagation on the trials core really runs: on every Table-1 analog,
// every trial must agree with a whole-netlist apply on feasibility, on the
// error text and on every net of its region. Each analog then runs again
// with a one-input NAND, a gate only a lenient parse keeps, reading each
// net the trials assign from outside every region: the malformed gate
// makes the netlist irregular, so its trials propagate whole and fail as a
// whole-netlist apply does. b14a and larger are skipped under -short.
func TestScopedTrialsMatchWholeNetlist(t *testing.T) {
	var total trialCounts
	for _, prof := range bench.Profiles {
		t.Run(prof.Name, func(t *testing.T) {
			if testing.Short() && prof.Name >= "b14a" {
				t.Skip("large analog; skipped with -short")
			}
			gen, err := prof.Generate()
			if err != nil {
				t.Fatal(err)
			}
			c := requireScopedTrialsMatch(t, gen.NL)
			total.trials += c.trials
			total.skipped += c.skipped

			broken := gen.NL.Clone()
			for i, a := range c.assigned {
				broken.AddGateLenient(fmt.Sprintf("UBAD%d", i), logic.Nand, broken.MustNet(fmt.Sprintf("zbad%d", i)), a)
			}
			b := requireScopedTrialsMatch(t, broken)
			if b.failed != b.trials || b.trials == 0 && c.trials > 0 {
				t.Errorf("with a malformed gate on every assigned net, %d of %d trials were feasible (%d without it)",
					b.trials-b.failed, b.trials, c.trials)
			}
		})
	}
	if total.trials == 0 || total.skipped == 0 {
		t.Errorf("coverage: %d trials, %d skipping work outside their region", total.trials, total.skipped)
	}
}

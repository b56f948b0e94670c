package bench

import (
	"testing"

	"gatewords/internal/core"
	"gatewords/internal/logic"
	"gatewords/internal/metrics"
	"gatewords/internal/refwords"
	"gatewords/internal/rtl"
	"gatewords/internal/shapehash"
	"gatewords/internal/synth"
)

// TestScanChainRobustness models the paper's motivating control-signal
// class: scan muxes inserted by the CAD flow in front of every flip-flop.
// Word identification must keep working — the scan mux adds one uniform
// level to every bit's cone, so words stay structurally coherent, and the
// identification quality survives.
func TestScanChainRobustness(t *testing.T) {
	d := &rtl.Design{
		Name: "scan",
		Inputs: []rtl.Signal{
			{Name: "a", Width: 6}, {Name: "b", Width: 6}, {Name: "en", Width: 1},
		},
		Regs: []*rtl.Reg{
			{Name: "u", Width: 6, Next: rtl.Mux{Sel: rtl.Ref{Name: "en"},
				A: rtl.Ref{Name: "u"}, B: rtl.Ref{Name: "a"}}},
			{Name: "v", Width: 6, Next: rtl.Bin{Kind: logic.Xor, A: rtl.Ref{Name: "a"}, B: rtl.Ref{Name: "b"}}},
		},
		Outputs: []rtl.Output{{Name: "o", Expr: rtl.RedOr{A: rtl.Ref{Name: "v"}}}},
	}
	for _, insertScan := range []bool{false, true} {
		res, err := synth.Synthesize(d, synth.Options{InsertScan: insertScan})
		if err != nil {
			t.Fatal(err)
		}
		refs := refwords.Extract(res.NL)
		if len(refs) != 2 {
			t.Fatalf("scan=%v: refs %d", insertScan, len(refs))
		}
		ours := core.Identify(res.NL, core.Options{})
		rep := metrics.Evaluate(refs, ours.GeneratedWords())
		if rep.FullyFound != 2 {
			t.Errorf("scan=%v: ours fully found %d/2 (%v)", insertScan, rep.FullyFound, rep.Words)
		}
		base := shapehash.Identify(res.NL, 0)
		brep := metrics.Evaluate(refs, base.Words)
		if brep.FullyFound != 2 {
			t.Errorf("scan=%v: base fully found %d/2", insertScan, brep.FullyFound)
		}
	}
}

// TestScanStyleNand checks the NAND-decomposed scan mux path as well.
func TestScanStyleNand(t *testing.T) {
	d := &rtl.Design{
		Name:   "scan2",
		Inputs: []rtl.Signal{{Name: "a", Width: 4}, {Name: "b", Width: 4}},
		Regs: []*rtl.Reg{
			{Name: "w", Width: 4, Next: rtl.Bin{Kind: logic.Nor, A: rtl.Ref{Name: "a"}, B: rtl.Ref{Name: "b"}}},
		},
	}
	res, err := synth.Synthesize(d, synth.Options{InsertScan: true, ScanStyle: synth.MuxNand})
	if err != nil {
		t.Fatal(err)
	}
	refs := refwords.Extract(res.NL)
	ours := core.Identify(res.NL, core.Options{})
	rep := metrics.Evaluate(refs, ours.GeneratedWords())
	if rep.FullyFound != 1 {
		t.Errorf("NAND scan style: %d/1 fully found", rep.FullyFound)
	}
}

package eqcheck_test

import (
	"testing"

	"gatewords/internal/bench"
	"gatewords/internal/eqcheck"
	"gatewords/internal/synth"
)

// BenchmarkCheckNetlists times one equivalence check of the b15 analog
// against its resynthesis (NAND muxes, fanin cap 2), the check the audit
// workload runs; generating the two netlists stays outside the timer.
func BenchmarkCheckNetlists(b *testing.B) {
	p, ok := bench.ProfileByName("b15a")
	if !ok {
		b.Fatal("benchmark b15a not registered")
	}
	gen, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	alt, err := gen.Resynthesize(synth.Options{MuxStyle: synth.MuxNand, MaxFanin: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eqcheck.CheckNetlists(gen.NL, alt, nil, eqcheck.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if v := res.Verdict(); v != eqcheck.Equivalent {
			b.Fatalf("verdict %v, want equivalent", v)
		}
	}
}

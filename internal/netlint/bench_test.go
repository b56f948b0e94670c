package netlint

import (
	"testing"

	"gatewords/internal/bench"
)

// BenchmarkLintSemantic times one lint run of the b15 analog with the
// semantic NL4xx rules on, the lint the audit workload runs; generating the
// netlist stays outside the timer.
func BenchmarkLintSemantic(b *testing.B) {
	p, ok := bench.ProfileByName("b15a")
	if !ok {
		b.Fatal("benchmark b15a not registered")
	}
	gen, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Run(gen.NL, Config{Semantic: true}); len(res.Diagnostics) == 0 {
			b.Fatal("no diagnostics")
		}
	}
}

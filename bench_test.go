// Benchmarks regenerating the paper's experiments.
//
// Table 1 (the paper's only results table) gets one benchmark pair per
// ITC99-analog row: BenchmarkTable1_<name>/Base measures shape hashing,
// /Ours measures the control-signal technique, both end-to-end on the
// generated circuit. BenchmarkFigure1 exercises the paper's running
// example. The Ablation benchmarks measure the design choices DESIGN.md
// calls out: assignment budget (the paper's §2.5 singles-then-pairs and its
// future-work triples), fanin-cone depth (§2.1 argues 2–4 levels), and the
// cohesive partial-group rule. BenchmarkObserverOff/On measure the cost of
// an attached Observer, and TestIdentifyDeadline pins cancellation on b18a.
//
// Run with: go test -bench=. -benchmem
package gatewords

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gatewords/internal/bench"
	"gatewords/internal/core"
	"gatewords/internal/metrics"
	"gatewords/internal/obs"
	"gatewords/internal/reduce"
	"gatewords/internal/shapehash"
	"gatewords/internal/verilog"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

var benchCache = map[string]*bench.Generated{}

func generatedBench(b *testing.B, name string) *bench.Generated {
	b.Helper()
	if g, ok := benchCache[name]; ok {
		return g
	}
	p, ok := bench.ProfileByName(name)
	if !ok {
		b.Fatalf("no profile %s", name)
	}
	g, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	benchCache[name] = g
	return g
}

// benchmarkRow measures one Table-1 cell and reports the paper's metrics as
// custom benchmark outputs so `go test -bench` regenerates the table.
func benchmarkRow(b *testing.B, name string, ours bool) {
	gen := generatedBench(b, name)
	var rep metrics.Report
	var ctrl int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ours {
			res := core.Identify(gen.NL, core.Options{})
			rep = metrics.Evaluate(gen.Refs, res.GeneratedWords())
			ctrl = len(res.UsedControlSignals)
		} else {
			res := shapehash.Identify(gen.NL, 0)
			rep = metrics.Evaluate(gen.Refs, res.Words)
		}
	}
	b.ReportMetric(rep.FullyFoundPct(), "full%")
	b.ReportMetric(rep.FragmentationRate, "frag")
	b.ReportMetric(rep.NotFoundPct(), "notfound%")
	if ours {
		b.ReportMetric(float64(ctrl), "ctrlsigs")
	}
}

func benchmarkTable1(b *testing.B, name string) {
	b.Run("Base", func(b *testing.B) { benchmarkRow(b, name, false) })
	b.Run("Ours", func(b *testing.B) { benchmarkRow(b, name, true) })
}

func BenchmarkTable1_b03(b *testing.B) { benchmarkTable1(b, "b03a") }
func BenchmarkTable1_b04(b *testing.B) { benchmarkTable1(b, "b04a") }
func BenchmarkTable1_b05(b *testing.B) { benchmarkTable1(b, "b05a") }
func BenchmarkTable1_b07(b *testing.B) { benchmarkTable1(b, "b07a") }
func BenchmarkTable1_b08(b *testing.B) { benchmarkTable1(b, "b08a") }
func BenchmarkTable1_b11(b *testing.B) { benchmarkTable1(b, "b11a") }
func BenchmarkTable1_b12(b *testing.B) { benchmarkTable1(b, "b12a") }
func BenchmarkTable1_b13(b *testing.B) { benchmarkTable1(b, "b13a") }
func BenchmarkTable1_b14(b *testing.B) { benchmarkTable1(b, "b14a") }
func BenchmarkTable1_b15(b *testing.B) { benchmarkTable1(b, "b15a") }
func BenchmarkTable1_b17(b *testing.B) { benchmarkTable1(b, "b17a") }
func BenchmarkTable1_b18(b *testing.B) { benchmarkTable1(b, "b18a") }

// BenchmarkFigure1 runs the paper's running example end-to-end (word
// recovered via the U201/U221-style control signals).
func BenchmarkFigure1(b *testing.B) {
	nl, _, err := bench.Figure1Circuit()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Identify(nl, core.Options{})
		if len(res.UsedControlSignals) == 0 {
			b.Fatal("figure-1 control signals not used")
		}
	}
}

// BenchmarkAblationMaxAssign sweeps the simultaneous-assignment budget on
// b12 (which contains both single- and pair-recoverable words); the paper's
// future-work extension is budget 3. The cohesive partial-group rule is
// disabled here so the metric isolates what *reduction alone* recovers —
// with it on, cohesion masks the budget (the grouping, though unverified,
// already covers the words).
func BenchmarkAblationMaxAssign(b *testing.B) {
	gen := generatedBench(b, "b12a")
	for _, ma := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("assign%d", ma), func(b *testing.B) {
			var rep metrics.Report
			for i := 0; i < b.N; i++ {
				res := core.Identify(gen.NL, core.Options{MaxAssign: ma, NoPartialGroups: true})
				rep = metrics.Evaluate(gen.Refs, res.GeneratedWords())
			}
			b.ReportMetric(rep.FullyFoundPct(), "full%")
		})
	}
}

// BenchmarkAblationConeDepth sweeps the fanin-cone depth on b15; the paper
// argues similarity survives only 2–4 levels of logic.
func BenchmarkAblationConeDepth(b *testing.B) {
	gen := generatedBench(b, "b15a")
	for _, depth := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var rep metrics.Report
			for i := 0; i < b.N; i++ {
				res := core.Identify(gen.NL, core.Options{Depth: depth})
				rep = metrics.Evaluate(gen.Refs, res.GeneratedWords())
			}
			b.ReportMetric(rep.FullyFoundPct(), "full%")
		})
	}
}

// BenchmarkAblationPartialGroups toggles the cohesive partial-group rule on
// b04, whose improvement comes entirely from it (zero control signals).
func BenchmarkAblationPartialGroups(b *testing.B) {
	gen := generatedBench(b, "b04a")
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var rep metrics.Report
			for i := 0; i < b.N; i++ {
				res := core.Identify(gen.NL, core.Options{NoPartialGroups: off})
				rep = metrics.Evaluate(gen.Refs, res.GeneratedWords())
			}
			b.ReportMetric(rep.FullyFoundPct(), "full%")
		})
	}
}

// BenchmarkParseVerilog measures the frontend, validation included, on the
// b14 analog that the benchmark's b14 and serve workloads parse and on the
// larger b15 analog.
func BenchmarkParseVerilog(b *testing.B) {
	for _, name := range []string{"b14a", "b15a"} {
		b.Run(name, func(b *testing.B) {
			gen := generatedBench(b, name)
			text, err := verilog.WriteString(gen.NL)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := verilog.Parse(name+".v", text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fingerprintSink keeps BenchmarkFingerprint's calls from being optimized
// away.
var fingerprintSink string

// BenchmarkFingerprint measures the canonical content hash that keys the
// service's result cache and quarantine breaker, on the b14 analog.
func BenchmarkFingerprint(b *testing.B) {
	nl := generatedBench(b, "b14a").NL
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = nl.Fingerprint()
	}
}

// BenchmarkConeHashing measures hash-key construction over every candidate
// net of the two largest profiles. Allocation counts here track the key
// engine directly: hash-consed tuple interning vs. the former per-node
// string building.
func BenchmarkConeHashing(b *testing.B) {
	for _, name := range []string{"b14a", "b15a"} {
		b.Run(name, func(b *testing.B) {
			gen := generatedBench(b, name)
			nl := gen.NL
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := coneInterner()
				builder := coneBuilder(nl, it)
				n := 0
				for id := 0; id < nl.NetCount(); id++ {
					if bc := builder.Bit(netlist.NetID(id)); bc != nil {
						n++
					}
				}
				if n == 0 {
					b.Fatal("no cones")
				}
			}
		})
	}
}

// BenchmarkReduceApply measures reduce.Apply, the whole-netlist path behind
// Reduce, on b15 from a decode net: a fresh propagator, which reads the
// netlist's own records, then one propagation pass to fixpoint through the
// decode net's forward cone and backward implications.
func BenchmarkReduceApply(b *testing.B) {
	gen := generatedBench(b, "b15a")
	nl := gen.NL
	// Use the first decode wire's net (dec wires synthesize to U-names, so
	// pick any NAND-driven internal net with fanout > 2).
	var pin netlist.NetID = netlist.NoNet
	for id := 0; id < nl.NetCount(); id++ {
		n := nl.Net(netlist.NetID(id))
		if n.Driver != netlist.NoGate && len(n.Fanout) > 2 && nl.Gate(n.Driver).Kind == logic.Nand {
			pin = netlist.NetID(id)
			break
		}
	}
	if pin == netlist.NoNet {
		b.Fatal("no suitable pin")
	}
	assign := map[netlist.NetID]logic.Value{pin: logic.Zero}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.Apply(nl, assign); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures benchmark synthesis itself (RTL -> gates).
func BenchmarkGenerate(b *testing.B) {
	p, _ := bench.ProfileByName("b12a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndFacade measures the public API path: parse + identify +
// evaluate on b08's Verilog.
func BenchmarkEndToEndFacade(b *testing.B) {
	gen := generatedBench(b, "b08a")
	text, err := verilog.WriteString(gen.NL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ParseVerilog("b08a.v", strings.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := Identify(d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		ev := Evaluate(d, rep)
		if ev.FullyFound == 0 {
			b.Fatal("nothing found")
		}
	}
}

// BenchmarkTable1Flow_b14 runs perfbench's b14 op in process on the b14a
// analog: ParseVerilogString, Fingerprint, Identify with VerifyReduction,
// IdentifyBaseline, Evaluate on both reports and the JSON report of Ours.
// It fails if Ours' row moves from its Table-1 golden.
func BenchmarkTable1Flow_b14(b *testing.B) {
	text, err := verilog.WriteString(generatedBench(b, "b14a").NL)
	if err != nil {
		b.Fatal(err)
	}
	want := table1Golden(b, "b14a").Ours
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ParseVerilogString("b14a.v", text)
		if err != nil {
			b.Fatal(err)
		}
		fingerprintSink = d.Fingerprint()
		start := time.Now()
		rep, err := Identify(d, Options{VerifyReduction: true})
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		base, err := IdentifyBaseline(d, 0)
		if err != nil {
			b.Fatal(err)
		}
		ours := Evaluate(d, rep)
		Evaluate(d, base)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, d, rep, &ours, false, elapsed); err != nil {
			b.Fatal(err)
		}
		if got := rowOf(ours); got != want {
			b.Fatalf("Ours row %+v, want %+v", got, want)
		}
	}
}

// table1Golden returns the committed Table-1 golden record of one analog.
func table1Golden(tb testing.TB, name string) analogGolden {
	tb.Helper()
	raw, err := os.ReadFile(table1GoldensPath)
	if err != nil {
		tb.Fatal(err)
	}
	var all []analogGolden
	if err := json.Unmarshal(raw, &all); err != nil {
		tb.Fatal(err)
	}
	for _, g := range all {
		if g.Name == name {
			return g
		}
	}
	tb.Fatalf("%s holds no %s record", table1GoldensPath, name)
	return analogGolden{}
}

// BenchmarkParallelIdentify compares sequential and parallel group
// processing on the largest benchmark.
func BenchmarkParallelIdentify(b *testing.B) {
	gen := generatedBench(b, "b18a")
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Identify(gen.NL, core.Options{Workers: workers})
			}
		})
	}
}

// b14aCache generates the b14 analog once for the observer-overhead
// benchmarks: generation dominates a single Identify and must stay out of
// the measured loop.
var b14aCache struct {
	once sync.Once
	gen  *bench.Generated
	err  error
}

func b14aNetlist(tb testing.TB) *bench.Generated {
	b14aCache.once.Do(func() {
		p, ok := bench.ProfileByName("b14a")
		if !ok {
			panic("b14a profile missing")
		}
		b14aCache.gen, b14aCache.err = p.Generate()
	})
	if b14aCache.err != nil {
		tb.Fatalf("generate b14a: %v", b14aCache.err)
	}
	return b14aCache.gen
}

// BenchmarkObserverOff pins the nil-recorder contract of internal/obs: the
// pipeline with Observer == nil is the baseline that BenchmarkObserverOn is
// compared against (acceptance: within ~2% on this bench).
func BenchmarkObserverOff(b *testing.B) {
	gen := b14aNetlist(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Identify(gen.NL, core.Options{})
	}
}

// BenchmarkObserverOn measures the same pipeline with a live recorder (a
// fresh one per iteration, as real callers hold one per run).
func BenchmarkObserverOn(b *testing.B) {
	gen := b14aNetlist(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Identify(gen.NL, core.Options{Observer: obs.New()})
	}
}

// TestIdentifyDeadline pins the cancellation semantics on the b18 analog,
// the one benchmark long enough to interrupt determinately: an expired
// deadline returns promptly with Stats.Interrupted set, and the partial
// word list is a strict prefix of the uninterrupted sequential run — every
// emitted word is complete, never a half-resolved subgroup. The deadline is
// a quarter of the full run, so the interrupted run has another quarter to
// notice it however fast identification is.
func TestIdentifyDeadline(t *testing.T) {
	p, ok := bench.ProfileByName("b18a")
	if !ok {
		t.Fatal("b18a profile missing")
	}
	gen, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}

	fullStart := time.Now()
	full := core.Identify(gen.NL, core.Options{})
	fullElapsed := time.Since(fullStart)
	if full.Stats.Interrupted {
		t.Fatal("uninterrupted run marked interrupted")
	}

	ctx, cancel := context.WithTimeout(context.Background(), fullElapsed/4)
	defer cancel()
	partStart := time.Now()
	part := core.Identify(gen.NL, core.Options{Context: ctx})
	partElapsed := time.Since(partStart)

	if !part.Stats.Interrupted {
		t.Fatalf("deadline run not interrupted (took %s, full run %s)", partElapsed, fullElapsed)
	}
	// "Promptly": the cancellation check fires per group, subgroup, and
	// trial, so expiry surfaces within one trial of work — far inside half
	// the full runtime even on a loaded machine.
	if partElapsed >= fullElapsed/2 {
		t.Errorf("interrupted run took %s, want well under half the full run (%s)", partElapsed, fullElapsed)
	}
	if len(part.Words) >= len(full.Words) {
		t.Fatalf("partial run emitted %d words, full run %d — nothing was cut short",
			len(part.Words), len(full.Words))
	}
	for i, w := range part.Words {
		fw := full.Words[i]
		if !equalNetSlices(w.Bits, fw.Bits) || w.Verified != fw.Verified {
			t.Fatalf("word %d diverges from the full run: %+v vs %+v", i, w, fw)
		}
	}
}

func equalNetSlices(a, b []netlist.NetID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

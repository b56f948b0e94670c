package main

import (
	"bytes"
	"fmt"
	"time"

	"gatewords"
	"gatewords/internal/cone"
	"gatewords/internal/netlist"
)

// b14 cycles three reseeded b14a designs (~9.4k gates): one op costs
// ~100–150 ms, so a run holds hundreds of samples. b18 repeats one reseeded
// b18a design (~98k gates), where the trial loop dominates identification
// and an op allocates ~530 MB; a run holds only a handful of ops. b18 is
// runnable but not listed in BENCHMARK.json: on a shared 2-vCPU host its
// timing spread between runs sat at the 0.25 bound (see record.json).
func runB14(cfg config) (*outcome, error) { return runPipeline(cfg, "b14a", 3, 5) }
func runB18(cfg config) (*outcome, error) { return runPipeline(cfg, "b18a", 1, 3) }

// pipeResult is one Table-1 op's output.
type pipeResult struct {
	report       []byte
	ours, base   gatewords.Evaluation
	verification *gatewords.ReductionVerification
	fingerprint  string
	reduced      int // words produced under a control-signal assignment
	observer     *gatewords.Observer
	identifySpan int
}

// pipelineOp is the analyst's flow from netlist text to word report:
// parse, fingerprint, Identify with the paper defaults and reduction
// verification, the shape-hashing baseline, Evaluate on both, and the JSON
// report of Ours.
func pipelineOp(d *design, op int, tr *tracer, workers int) (pipeResult, error) {
	var r pipeResult
	if tr != nil {
		r.observer = gatewords.NewObserver()
	}
	root := tr.start(op, -1, "op")
	sp := tr.start(op, root, "verilog.parse")
	gd, err := gatewords.ParseVerilogString(d.name+".v", d.src)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.start(op, root, "netlist.fingerprint")
	r.fingerprint = gd.Fingerprint()
	tr.end(sp)
	r.identifySpan = tr.start(op, root, "gatewords.identify")
	t0 := time.Now()
	rep, err := gatewords.Identify(gd, gatewords.Options{VerifyReduction: true, Workers: workers, Observer: r.observer})
	elapsed := time.Since(t0)
	tr.end(r.identifySpan)
	if err != nil {
		return r, err
	}
	sp = tr.start(op, root, "shapehash.identify")
	base, err := gatewords.IdentifyBaseline(gd, 0)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.start(op, root, "metrics.evaluate")
	r.ours = gatewords.Evaluate(gd, rep)
	r.base = gatewords.Evaluate(gd, base)
	tr.end(sp)
	sp = tr.start(op, root, "report.render")
	var buf bytes.Buffer
	err = gatewords.WriteJSON(&buf, gd, rep, &r.ours, false, elapsed)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return r, err
	}
	r.report = buf.Bytes()
	r.verification = rep.ReductionVerification
	for _, w := range rep.MultiBitWords() {
		if len(w.Assignment) > 0 {
			r.reduced++
		}
	}
	return r, nil
}

// pipeRef is the first checked output of each design; every later op on
// the design must reproduce it.
type pipeRef struct {
	hash        [32]byte
	fingerprint string
	report      []byte
	ours, base  gatewords.Evaluation
}

func verifyPipeline(profile string, ref *pipeRef, r pipeResult) error {
	want := expectedAccuracy[profile]
	if got := accuracyOf(r.ours); !got.equal(want[0]) {
		return fmt.Errorf("Ours accuracy %+v, want %+v", got, want[0])
	}
	if got := accuracyOf(r.base); !got.equal(want[1]) {
		return fmt.Errorf("Base accuracy %+v, want %+v", got, want[1])
	}
	if !r.verification.Sound() {
		return fmt.Errorf("reduction verification not sound: %+v", r.verification)
	}
	h, err := reportHash(r.report)
	if err != nil {
		return err
	}
	if ref != nil && (h != ref.hash || r.fingerprint != ref.fingerprint) {
		return fmt.Errorf("report or fingerprint differs from the design's first op")
	}
	return nil
}

func runPipeline(cfg config, profile string, n, setups int) (*outcome, error) {
	out := &outcome{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
	}
	designs, setupS, err := setUp(reseeded(profile, cfg.seed, n, false), setups, tr, out)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := parseAll(designs); err != nil {
			return nil, err
		}
	}
	refs := make([]*pipeRef, n)
	counters := newPerDesign(out)
	var reportKB []float64
	run := func(op, d int, tr *tracer) (pipeResult, error) { return pipelineOp(&designs[d], op, tr, 0) }
	check := func(op, d int, tr *tracer, r pipeResult) error {
		if err := verifyPipeline(profile, refs[d], r); err != nil {
			return err
		}
		if refs[d] == nil {
			h, _ := reportHash(r.report) // verifyPipeline hashed it already
			refs[d] = &pipeRef{hash: h, fingerprint: r.fingerprint, report: r.report, ours: r.ours, base: r.base}
		}
		if tr == nil {
			return nil
		}
		doc, err := readObserver(r.observer)
		if err != nil {
			return err
		}
		for _, s := range coreStages {
			tr.stage(r.identifySpan, s.metric, time.Duration(doc.stageMS(s.stage)*1e6))
		}
		counters.add(designs[d].name, op, counterSet{
			"trials":             doc.counter("trials"),
			"reduce_gate_visits": doc.counter("reduce_gate_visits"),
			"sat_conflicts":      doc.counter("sat_conflicts"),
			"sat_decisions":      doc.counter("sat_decisions"),
			"reduced_words":      int64(r.reduced),
		})
		// Not an exact counter: the report embeds its wall time.
		reportKB = append(reportKB, float64(len(r.report))/1024)
		coneProbe(designs[d].nl, tr, op)
		return nil
	}
	st, err := closedLoop(cfg, out, tr, n, run, check)
	if err != nil {
		return nil, err
	}

	for d, r := range refs {
		if r == nil {
			return nil, fmt.Errorf("%s: no op passed its checks: %v", designs[d].name, out.problems)
		}
	}
	// A parallel run must produce the same report (runtime zeroed).
	for d := range designs {
		r, err := pipelineOp(&designs[d], -1, nil, 2)
		if err != nil {
			return nil, err
		}
		if err := verifyPipeline(profile, refs[d], r); err != nil {
			out.problem("Workers: 2 run on %s: %v", designs[d].name, err)
		}
	}
	selfTest(out, refs[0].report, "bits", func(b []byte) error {
		r := pipeResult{report: b, ours: refs[0].ours, base: refs[0].base, fingerprint: refs[0].fingerprint,
			verification: &gatewords.ReductionVerification{}}
		return verifyPipeline(profile, refs[0], r)
	})

	if !cfg.trace {
		var full, words int
		for _, r := range refs {
			full += r.ours.FullyFound
			words += r.ours.ReferenceWords
		}
		endToEnd(out, setupS, st.all, st.lat, float64(st.all.ops)/st.all.wall.Seconds(),
			st.maxRSSKB, st.attempted-st.failed, 100*float64(full)/float64(words))
		return out, nil
	}
	nt := st.traced.ops
	l := layers{}
	l.spanMetrics(tr, nt, "verilog.parse", "netlist.fingerprint", "shapehash.identify",
		"metrics.evaluate", "report.render", "cone.key")
	l["gatewords.identify_self_ms"] = ms(tr.selfTotal("gatewords.identify")) / float64(nt)
	l["core.trials"] = counters.mean("trials")
	l["core.trial_yield"] = ratio(counters.sum("reduced_words"), counters.sum("trials"))
	l["reduce.gate_visits"] = counters.mean("reduce_gate_visits")
	l["reduce.visits_per_trial"] = ratio(counters.sum("reduce_gate_visits"), counters.sum("trials"))
	l["eqcheck.sat_conflicts"] = counters.mean("sat_conflicts")
	l["eqcheck.sat_decisions"] = counters.mean("sat_decisions")
	l["report.kb"] = mean(reportKB)
	l.runtimeMetrics(st.traced)
	l["trace.overhead_frac"] = st.overhead()
	l.emit(out)
	out.note("traced ops %d, untraced ops %d", st.traced.ops, st.plain.ops)
	return out, nil
}

// coneProbe keys the fanin cone of every net of the design, the work the
// match stage does per candidate bit. It runs after the op, outside its
// measured interval.
func coneProbe(nl *netlist.Netlist, tr *tracer, op int) {
	root := tr.start(op, -1, "probe")
	sp := tr.start(op, root, "cone.key")
	b := cone.NewBuilder(nl, cone.NewInterner(), cone.DefaultDepth)
	for n := 0; n < nl.NetCount(); n++ {
		b.Bit(netlist.NetID(n))
	}
	tr.end(sp)
	tr.end(root)
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"gatewords"
	"gatewords/internal/eqcheck"
	"gatewords/internal/obs"
	"gatewords/internal/verilog"
)

// audit cycles five reseeded b15a designs (~7.9k gates), each with a
// resynthesis of its RTL (NAND muxes, fanin cap 2): the only workload where
// the equivalence engine, semantic lint, SCOAP and triage ranking do real
// work, while the trial loop is a small share of an op. SAT effort differs
// by up to ~12% between reseeded designs, so the median op is taken over
// five of them to keep it from following the seed.
func runAudit(cfg config) (*outcome, error) {
	const n = 5
	out := &outcome{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
	}
	designs, setupS, err := setUp(reseeded("b15a", cfg.seed, n, true), 5, tr, out)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := parseAll(designs); err != nil {
			return nil, err
		}
	}
	refs := make([]*auditRef, n)
	counters := newPerDesign(out)
	run := func(op, d int, tr *tracer) (auditResult, error) { return auditOp(&designs[d], op, tr) }
	check := func(op, d int, tr *tracer, r auditResult) error {
		triage, lint, err := r.render()
		if err != nil {
			return err
		}
		if err := verifyAudit(refs[d], r.eq.Verdict(), triage, lint); err != nil {
			return err
		}
		if refs[d] == nil {
			refs[d] = &auditRef{triage: sha256.Sum256(triage), lint: sha256.Sum256(lint), triageJSON: triage}
		}
		if tr == nil {
			return nil
		}
		doc, err := readObserver(r.observer)
		if err != nil {
			return err
		}
		for _, s := range coreStages {
			tr.stage(r.triageSpan, s.metric, time.Duration(doc.stageMS(s.stage)*1e6))
		}
		tr.stage(r.triageSpan, "scoap.compute", time.Duration(doc.stageMS("scoap")*1e6))
		tr.stage(r.triageSpan, "triage.rank", time.Duration(doc.stageMS("triage")*1e6))
		var sat int64
		for _, o := range r.eq.Outputs {
			if o.Stage == "sat" {
				sat++
			}
		}
		counters.add(designs[d].name, op, counterSet{
			"trials":             doc.counter("trials"),
			"reduce_gate_visits": doc.counter("reduce_gate_visits"),
			"scoap_iterations":   r.triage.ScoapIterations,
			"diagnostics":        int64(len(r.lint.Diagnostics)),
			"sat_outputs":        sat,
			"outputs":            int64(len(r.eq.Outputs)),
		})
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
	selfTest(out, refs[0].triageJSON, "gate", func(b []byte) error {
		return verifyAudit(refs[0], "equivalent", b, nil)
	})

	// Ours accuracy on the audited designs, with the options Triage's own
	// identification uses; outside the timed window.
	var full, words, reduced int
	for d := range designs {
		gd, err := gatewords.ParseVerilogString(designs[d].name+".v", designs[d].src)
		if err != nil {
			return nil, err
		}
		rep, err := gatewords.Identify(gd, gatewords.Options{})
		if err != nil {
			return nil, err
		}
		ev := gatewords.Evaluate(gd, rep)
		full += ev.FullyFound
		words += ev.ReferenceWords
		for _, w := range rep.MultiBitWords() {
			if len(w.Assignment) > 0 {
				reduced++
			}
		}
	}
	if !cfg.trace {
		endToEnd(out, setupS, st.all, st.lat, float64(st.all.ops)/st.all.wall.Seconds(),
			st.maxRSSKB, st.attempted-st.failed, 100*float64(full)/float64(words))
		return out, nil
	}

	// SAT effort per design, from the equivalence engine's own Observer on
	// the same two parsed netlists the facade call compares.
	var conflicts, decisions float64
	for d := range designs {
		alt, err := verilog.Parse(designs[d].name+"_alt.v", designs[d].alt)
		if err != nil {
			return nil, err
		}
		rec := obs.New()
		if _, err := eqcheck.CheckNetlists(designs[d].nl, alt, nil, eqcheck.Options{Observer: rec}); err != nil {
			return nil, err
		}
		conflicts += float64(rec.Count(obs.CtrSATConflicts))
		decisions += float64(rec.Count(obs.CtrSATDecisions))
		tr.count(-1, designs[d].name+".sat_conflicts", float64(rec.Count(obs.CtrSATConflicts)))
		tr.count(-1, designs[d].name+".sat_decisions", float64(rec.Count(obs.CtrSATDecisions)))
	}
	nt := st.traced.ops
	l := layers{}
	l.spanMetrics(tr, nt, "verilog.parse", "netlint.run", "eqcheck.check", "scoap.compute",
		"triage.rank", "cone.key")
	l["core.trials"] = counters.mean("trials")
	l["core.trial_yield"] = ratio(float64(reduced), counters.sum("trials"))
	l["reduce.gate_visits"] = counters.mean("reduce_gate_visits")
	l["reduce.visits_per_trial"] = ratio(counters.sum("reduce_gate_visits"), counters.sum("trials"))
	l["eqcheck.sat_frac"] = ratio(counters.sum("sat_outputs"), counters.sum("outputs"))
	l["eqcheck.sat_conflicts"] = conflicts / n
	l["eqcheck.sat_decisions"] = decisions / n
	l["netlint.diagnostics"] = counters.mean("diagnostics")
	l["scoap.iterations"] = counters.mean("scoap_iterations")
	l.runtimeMetrics(st.traced)
	l["trace.overhead_frac"] = st.overhead()
	l.emit(out)
	out.note("traced ops %d, untraced ops %d", st.traced.ops, st.plain.ops)
	return out, nil
}

type auditResult struct {
	lint       *gatewords.LintReport
	triage     *gatewords.TriageReport
	eq         *gatewords.EquivalenceReport
	observer   *gatewords.Observer
	triageSpan int
}

// render gives the triage ranking and the lint findings as the JSON the
// CLIs print; the check compares them across repeats.
func (r auditResult) render() (triage, lint []byte, err error) {
	var tb, lb bytes.Buffer
	if err := r.triage.WriteJSON(&tb); err != nil {
		return nil, nil, err
	}
	if err := r.lint.WriteJSON(&lb); err != nil {
		return nil, nil, err
	}
	return tb.Bytes(), lb.Bytes(), nil
}

// auditOp is the auditor's flow: parse the design and its resynthesis,
// semantic lint, triage, and the equivalence check between the two.
func auditOp(d *design, op int, tr *tracer) (auditResult, error) {
	var r auditResult
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
	sp = tr.start(op, root, "verilog.parse")
	alt, err := gatewords.ParseVerilogString(d.name+"_alt.v", d.alt)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.start(op, root, "netlint.run")
	r.lint = gatewords.LintWith(gd, gatewords.LintConfig{Semantic: true})
	tr.end(sp)
	r.triageSpan = tr.start(op, root, "gatewords.triage")
	r.triage, err = gatewords.Triage(gd, gatewords.TriageOptions{Observer: r.observer})
	tr.end(r.triageSpan)
	if err != nil {
		return r, err
	}
	sp = tr.start(op, root, "eqcheck.check")
	r.eq, err = gatewords.CheckEquivalence(gd, alt, nil, gatewords.EquivalenceOptions{})
	tr.end(sp)
	tr.end(root)
	return r, err
}

// auditRef is the first checked output of each design.
type auditRef struct {
	triage, lint [32]byte
	triageJSON   []byte
}

// verifyAudit requires the design equivalent to its resynthesis and the
// triage ranking and lint findings identical to the design's first op. A
// nil lint skips the lint comparison (the self-test corrupts triage only).
func verifyAudit(ref *auditRef, verdict string, triage, lint []byte) error {
	if verdict != "equivalent" {
		return fmt.Errorf("design and resynthesis judged %s", verdict)
	}
	if ref == nil {
		return nil
	}
	if sha256.Sum256(triage) != ref.triage {
		return fmt.Errorf("triage ranking differs from the design's first op")
	}
	if lint != nil && sha256.Sum256(lint) != ref.lint {
		return fmt.Errorf("lint findings differ from the design's first op")
	}
	return nil
}

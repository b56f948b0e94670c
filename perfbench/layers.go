package main

import "fmt"

// perLayerUnits lists every per-layer metric a traced run prints. A layer a
// workload does not exercise reports 0.
var perLayerUnits = []struct{ name, unit string }{
	{"synth.generate_ms", "ms"},
	{"verilog.parse_ms", "ms"},
	{"netlist.fingerprint_ms", "ms"},
	{"core.group_ms", "ms"},
	{"core.match_ms", "ms"},
	{"core.ctrlsig_ms", "ms"},
	{"core.trial_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"core.trials", "count"},
	{"core.trial_yield", "ratio"},
	{"reduce.gate_visits", "count"},
	{"reduce.visits_per_trial", "count"},
	{"cone.key_ms", "ms"},
	{"shapehash.identify_ms", "ms"},
	{"gatewords.identify_self_ms", "ms"},
	{"metrics.evaluate_ms", "ms"},
	{"report.render_ms", "ms"},
	{"report.kb", "KB"},
	{"eqcheck.check_ms", "ms"},
	{"eqcheck.sat_frac", "ratio"},
	{"eqcheck.sat_conflicts", "count"},
	{"eqcheck.sat_decisions", "count"},
	{"netlint.run_ms", "ms"},
	{"netlint.diagnostics", "count"},
	{"scoap.compute_ms", "ms"},
	{"scoap.iterations", "count"},
	{"triage.rank_ms", "ms"},
	{"http.submit_ms", "ms"},
	{"http.fetch_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.cache_hit_frac", "ratio"},
	{"service.runs_per_job", "ratio"},
	{"service.refused", "count"},
	{"journal.replay_ms", "ms"},
	{"journal.kb_per_job", "KB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_per_op", "count"},
	{"loadgen.late_ms_max", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// coreStages maps the Observer's identification stages to their metrics.
var coreStages = []struct{ stage, metric string }{
	{"group", "core.group"},
	{"match", "core.match"},
	{"ctrlsig", "core.ctrlsig"},
	{"trial", "core.trial"},
	{"verify", "core.verify"},
}

// layers collects a traced run's per-layer values; every name in
// perLayerUnits is printed, 0 where the workload does not set it.
type layers map[string]float64

func (l layers) emit(out *outcome) {
	for _, m := range perLayerUnits {
		out.set(m.name, l[m.name], m.unit)
	}
	for name := range l {
		if !isPerLayer(name) {
			panic(fmt.Sprintf("perfbench: per-layer metric %q is not in perLayerUnits", name))
		}
	}
}

func isPerLayer(name string) bool {
	for _, m := range perLayerUnits {
		if m.name == name {
			return true
		}
	}
	return false
}

// spanMetrics sets each named span's mean time per op (ms) and the
// Observer stage totals recorded under the traced ops.
func (l layers) spanMetrics(tr *tracer, ops int, names ...string) {
	for _, n := range names {
		l[n+"_ms"] = ms(tr.total(n)) / float64(ops)
	}
	for _, s := range coreStages {
		l[s.metric+"_ms"] = ms(tr.total(s.metric)) / float64(ops)
	}
	if c := countSpans(tr, "synth.generate"); c > 0 {
		l["synth.generate_ms"] = ms(tr.total("synth.generate")) / float64(c)
	}
}

func countSpans(tr *tracer, name string) int {
	n := 0
	for _, s := range tr.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// runtimeMetrics sets the runtime/metrics deltas of the traced ops.
func (l layers) runtimeMetrics(u usage) {
	if u.ops == 0 {
		return
	}
	l["runtime.gc_cpu_frac"] = u.gcFrac()
	l["runtime.allocs_per_op"] = u.perOp(u.allocObjs)
	l["runtime.gc_per_op"] = u.perOp(u.gcCycles)
}

// endToEnd sets the end-to-end metrics every workload shares, from the
// measured ops' usage and latencies (ms).
func endToEnd(out *outcome, setupS float64, u usage, lat []float64, opsPerS float64, maxRSSKB int64, ok int, fullPct float64) {
	out.set("setup_s", setupS, "s")
	out.set("latency_ms_p50", quantile(lat, 0.5), "ms")
	out.set("latency_ms_p90", quantile(lat, 0.9), "ms")
	out.set("ops_per_s", opsPerS, "1/s")
	out.set("cpu_ms_per_op", u.perOp(ms(u.cpu)), "ms")
	out.set("alloc_mb_per_op", u.perOp(u.allocB)/1e6, "MB")
	out.set("rss_peak_mb", float64(maxRSSKB)/1024, "MB")
	out.set("ok_frac", float64(ok)/float64(out.attempted), "ratio")
	out.set("full_pct", fullPct, "%")
	out.note("latency: %d samples, %d beyond p50, %d beyond p90 (a percentile needs 10 beyond it to be admissible)",
		len(lat), beyond(lat, 0.5), beyond(lat, 0.9))
}

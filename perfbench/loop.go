package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"
)

// loopStats is what a closed-loop window measured: all ops, and in a traced
// run the traced and untraced halves separately.
type loopStats struct {
	all, traced, plain       usage
	lat, latTraced, latPlain []float64 // ms
	maxRSSKB                 int64
	attempted, failed        int
}

// closedLoop runs the b14, b18 and audit workloads: one client runs
// ops back to back over the design set in a fixed order until the measured
// op time reaches the window. Only run is measured; check, which compares
// the op's outputs and does the traced run's bookkeeping, runs between ops
// with the clock stopped. The loop first warms up with one checked op per
// design. In a traced run every other op carries the tracer and the
// program's Observers; the untraced ops between them are the reference for
// the tracing overhead.
func closedLoop[R any](cfg config, out *outcome, tr *tracer, n int,
	run func(op, d int, tr *tracer) (R, error),
	check func(op, d int, tr *tracer, r R) error,
) (loopStats, error) {
	var st loopStats
	for d := 0; d < n; d++ {
		r, err := run(-1, d, nil)
		if err != nil {
			return st, err
		}
		if err := check(-1, d, nil, r); err != nil {
			out.problem("warm-up op on design %d: %v", d, err)
		}
	}
	runtime.GC()
	window := time.Duration(cfg.seconds * float64(time.Second))
	for op := 0; st.all.wall < window; op++ {
		d := op % n
		var optr *tracer
		if cfg.trace && op%2 == 1 {
			optr = tr
		}
		before := snapshot()
		r, err := run(op, d, optr)
		after := snapshot()
		if err != nil {
			return st, fmt.Errorf("op %d: %w", op, err)
		}
		st.all.ops++
		st.all.add(before, after)
		l := ms(after.wall.Sub(before.wall))
		st.lat = append(st.lat, l)
		if optr != nil {
			st.traced.ops++
			st.traced.add(before, after)
			st.latTraced = append(st.latTraced, l)
		} else {
			st.plain.ops++
			st.plain.add(before, after)
			st.latPlain = append(st.latPlain, l)
		}
		st.attempted++
		if err := check(op, d, optr, r); err != nil {
			st.failed++
			if st.failed <= 5 {
				out.problem("op %d on design %d: %v", op, d, err)
			}
		}
	}
	st.maxRSSKB = snapshot().maxRSSKB
	out.attempted, out.failed = st.attempted, st.failed
	if st.failed > 5 {
		out.problem("%d ops failed their checks in all", st.failed)
	}
	return st, nil
}

// overhead is the traced ops' median latency over the untraced ops'.
func (st loopStats) overhead() float64 {
	if len(st.latTraced) == 0 || len(st.latPlain) == 0 {
		return 0
	}
	return quantile(st.latTraced, 0.5)/quantile(st.latPlain, 0.5) - 1
}

// selfTest feeds a corrupted copy of a report through the op check and
// shows that ok_frac drops: a check that passes the corrupted report would
// let wrong output count as correct.
func selfTest(out *outcome, report []byte, key string, verify func([]byte) error) {
	bad := corrupt(report, key)
	if bad == nil {
		out.problem("self-test: report has no word to corrupt")
		return
	}
	if err := verify(bad); err == nil {
		out.problem("self-test: a corrupted report passed the output checks")
		return
	}
	ok := out.attempted - out.failed
	out.note("self-test: corrupted report rejected; with it ok_frac would drop from %.4f to %.4f",
		float64(ok)/float64(out.attempted), float64(ok)/float64(out.attempted+1))
}

// corrupt alters the first string after the first occurrence of key in a
// JSON document: the first bit of the first word for "bits", the first
// suspect gate for "gate".
func corrupt(report []byte, key string) []byte {
	k := []byte(`"` + key + `":`)
	i := bytes.Index(report, k)
	if i < 0 {
		return nil
	}
	j := bytes.IndexByte(report[i+len(k):], '"')
	if j < 0 {
		return nil
	}
	at := i + len(k) + j + 1
	bad := append([]byte(nil), report[:at]...)
	bad = append(bad, 'x')
	return append(bad, report[at:]...)
}

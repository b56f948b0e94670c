package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed layer call. Spans of one op share Op; Parent is the
// index of the enclosing span (-1 for an op's root). A span marked Stage is
// a per-op stage total reported by the program's Observer: it has no start
// time of its own and is placed at its parent's start.
type span struct {
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Stage  bool   `json:"stage,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// count is a work counter recorded at a layer boundary for one op (-1 for
// counters that belong to the run, such as set-up).
type count struct {
	Op    int     `json:"op"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// tracer records nothing, which is how untraced ops run.
type tracer struct {
	t0     time.Time
	spans  []span
	counts []count
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Op: op, Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// interval records a span whose bounds were taken elsewhere, such as a
// serve job's timestamps.
func (t *tracer) interval(op, parent int, name string, from, to time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Parent: parent, Name: name,
		Start: int64(from.Sub(t.t0)), End: int64(to.Sub(t.t0))})
	return len(t.spans) - 1
}

// stage records an Observer stage total as a child of parent.
func (t *tracer) stage(parent int, name string, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{Op: p.Op, Parent: parent, Name: name,
		Start: p.Start, End: p.Start + int64(d), Stage: true})
}

func (t *tracer) count(op int, name string, v float64) {
	if t == nil {
		return
	}
	t.counts = append(t.counts, count{Op: op, Name: name, Value: v})
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTotal sums span − children over the spans named name.
func (t *tracer) selfTotal(name string) time.Duration {
	self := make(map[int]time.Duration)
	for i, s := range t.spans {
		if s.Name == name {
			self[i] += s.dur()
		}
	}
	for _, s := range t.spans {
		if _, ok := self[s.Parent]; ok && s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	var d time.Duration
	for _, v := range self {
		d += v
	}
	return d
}

// write saves the spans and counters, with each span's self time, as JSON.
func (t *tracer) write(path string, cfg config) error {
	type spanOut struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Seconds  float64   `json:"seconds"`
		Spans    []spanOut `json:"spans"`
		Counts   []count   `json:"counts"`
	}{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Counts: t.counts}
	for i, s := range t.spans {
		out.Spans = append(out.Spans, spanOut{span: s, SelfNS: s.End - s.Start - children[i]})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"gatewords"
)

// normalizeReport compacts a gatewords report document and zeroes its
// runtime_seconds, the one field that records wall time, so reports of the
// same design compare byte for byte. Compacting also removes the
// re-indentation the HTTP layer applies to an embedded report.
func normalizeReport(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, fmt.Errorf("report is not JSON: %w", err)
	}
	c := buf.Bytes()
	key := []byte(`"runtime_seconds":`)
	i := bytes.Index(c, key)
	if i < 0 {
		return nil, errors.New("report has no runtime_seconds")
	}
	j := i + len(key)
	k := j
	for k < len(c) && c[k] != ',' && c[k] != '}' {
		k++
	}
	out := make([]byte, 0, len(c)-(k-j)+1)
	out = append(append(append(out, c[:j]...), '0'), c[k:]...)
	return out, nil
}

// reportHash is the digest of a normalized report.
func reportHash(b []byte) ([32]byte, error) {
	n, err := normalizeReport(b)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(n), nil
}

// accuracy is one technique's paper metrics on a profile.
type accuracy struct {
	full, notFound, frag float64
}

func accuracyOf(ev gatewords.Evaluation) accuracy {
	return accuracy{ev.FullyFoundPct, ev.NotFoundPct, ev.FragmentationRate}
}

// expectedAccuracy holds the seed-invariant Ours and Base metrics of the
// profiles the closed-loop identify workloads run: every reseeded design of
// a profile must score exactly these.
var expectedAccuracy = map[string][2]accuracy{
	"b14a": {{62.5, 0, 0.06666666666666667}, {50, 0, 0.11666666666666667}},
	"b18a": {{58.490566037735846, 4.716981132075472, 0.20170940170940144}, {52.83018867924528, 5.660377358490566, 0.21969696969696945}},
}

func (a accuracy) equal(b accuracy) bool {
	const eps = 1e-9
	return math.Abs(a.full-b.full) < eps && math.Abs(a.notFound-b.notFound) < eps && math.Abs(a.frag-b.frag) < eps
}

// observerDoc is the Observer's deterministic JSON rendering.
type observerDoc struct {
	Stages []struct {
		Stage string  `json:"stage"`
		MS    float64 `json:"ms"`
	} `json:"stages"`
	Counters []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	} `json:"counters"`
}

func readObserver(o *gatewords.Observer) (observerDoc, error) {
	var doc observerDoc
	b, err := o.MarshalJSON()
	if err != nil {
		return doc, err
	}
	err = json.Unmarshal(b, &doc)
	return doc, err
}

func (d observerDoc) stageMS(name string) float64 {
	for _, s := range d.Stages {
		if s.Stage == name {
			return s.MS
		}
	}
	return 0
}

func (d observerDoc) counter(name string) int64 {
	for _, c := range d.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// counterSet is the work counters of one op; ops on the same design must
// repeat them exactly.
type counterSet map[string]int64

func (c counterSet) equal(o counterSet) bool {
	if len(c) != len(o) {
		return false
	}
	for k, v := range c {
		if o[k] != v {
			return false
		}
	}
	return true
}

// perDesign keeps the first counter set seen for each design and reports
// any later op whose counters differ.
type perDesign struct {
	sets map[string]counterSet
	out  *outcome
}

func newPerDesign(out *outcome) *perDesign {
	return &perDesign{sets: make(map[string]counterSet), out: out}
}

func (p *perDesign) add(design string, op int, c counterSet) {
	first, ok := p.sets[design]
	if !ok {
		p.sets[design] = c
		return
	}
	if !first.equal(c) {
		p.out.problem("op %d on %s: counters %v differ from the design's first traced op %v", op, design, c, first)
	}
}

// mean returns the counter averaged over designs: the per-op value over
// one cycle of the design set, which repeats exactly across runs.
func (p *perDesign) mean(name string) float64 {
	if len(p.sets) == 0 {
		return 0
	}
	return p.sum(name) / float64(len(p.sets))
}

func (p *perDesign) sum(name string) float64 {
	var s float64
	for _, c := range p.sets {
		s += float64(c[name])
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

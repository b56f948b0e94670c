package main

import (
	"fmt"
	"time"

	"gatewords/internal/bench"
	"gatewords/internal/netlist"
	"gatewords/internal/synth"
	"gatewords/internal/verilog"
)

// designSpec names one generated design: a Table-1 analog profile,
// reseeded, under a module name of its own.
type designSpec struct {
	profile string
	name    string
	seed    int64
	resynth bool // also render a resynthesis (NAND muxes, fanin cap 2)
}

// design is a generated design as the program receives it: Verilog text
// only. nl is the benchmark's own parse of src, made outside the timed
// window for the traced run's probes.
type design struct {
	designSpec
	src string
	alt string
	nl  *netlist.Netlist
}

// deriveSeed maps the workload seed and a stream position to a profile
// seed (splitmix64), so every design of a run follows from --seed alone.
func deriveSeed(seed int64, stream string, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	for _, c := range stream {
		z = (z ^ uint64(c)) * 0x100000001b3
	}
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// reseeded returns n specs of one profile, each with a seed derived from
// the workload seed.
func reseeded(profile string, seed int64, n int, resynth bool) []designSpec {
	specs := make([]designSpec, n)
	for i := range specs {
		specs[i] = designSpec{
			profile: profile,
			name:    fmt.Sprintf("%s_%d", profile, i),
			seed:    deriveSeed(seed, profile, i),
			resynth: resynth,
		}
	}
	return specs
}

// generate builds one design and renders its Verilog, which is what
// cmd/table1 and cmd/benchgen pay before identifying.
func generate(sp designSpec) (design, error) {
	p, ok := bench.ProfileByName(sp.profile)
	if !ok {
		return design{}, fmt.Errorf("unknown profile %q", sp.profile)
	}
	p.Name, p.Seed = sp.name, sp.seed
	g, err := p.Generate()
	if err != nil {
		return design{}, fmt.Errorf("generating %s: %w", sp.name, err)
	}
	d := design{designSpec: sp}
	if d.src, err = verilog.WriteString(g.NL); err != nil {
		return design{}, fmt.Errorf("rendering %s: %w", sp.name, err)
	}
	if sp.resynth {
		alt, err := g.Resynthesize(synth.Options{MuxStyle: synth.MuxNand, MaxFanin: 2})
		if err != nil {
			return design{}, fmt.Errorf("resynthesizing %s: %w", sp.name, err)
		}
		if d.alt, err = verilog.WriteString(alt); err != nil {
			return design{}, fmt.Errorf("rendering %s resynthesis: %w", sp.name, err)
		}
	}
	return d, nil
}

// setUp generates every design reps times in sequence and returns the
// designs with the median set-up time in seconds. Repeating the set-up
// steadies setup_s (the first pass in a process is the slow outlier) and
// checks that generation is deterministic.
func setUp(specs []designSpec, reps int, tr *tracer, out *outcome) ([]design, float64, error) {
	var first []design
	var times []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		ds := make([]design, len(specs))
		for i, sp := range specs {
			id := tr.start(-1, -1, "synth.generate")
			d, err := generate(sp)
			tr.end(id)
			if err != nil {
				return nil, 0, err
			}
			ds[i] = d
		}
		times = append(times, time.Since(t0).Seconds())
		if r == 0 {
			first = ds
			continue
		}
		for i := range ds {
			if ds[i].src != first[i].src || ds[i].alt != first[i].alt {
				out.problem("set-up %d rendered %s differently from set-up 0", r, ds[i].name)
			}
		}
	}
	out.note("set-up: %d designs, %d passes, seconds per pass %v", len(specs), reps, roundAll(times, 4))
	return first, quantile(times, 0.5), nil
}

// generateAll builds designs where generation is preparation rather than
// the measured set-up. It also returns each design's generation time in ms.
func generateAll(specs []designSpec) ([]design, []float64, error) {
	ds := make([]design, len(specs))
	took := make([]float64, len(specs))
	for i := range specs {
		t0 := time.Now()
		d, err := generate(specs[i])
		if err != nil {
			return nil, nil, err
		}
		ds[i], took[i] = d, ms(time.Since(t0))
	}
	return ds, took, nil
}

// parseAll gives each design the benchmark's own parse of its text, for
// the traced run's probes.
func parseAll(ds []design) error {
	for i := range ds {
		nl, err := verilog.Parse(ds[i].name+".v", ds[i].src)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", ds[i].name, err)
		}
		ds[i].nl = nl
	}
	return nil
}

func roundAll(xs []float64, digits int) []float64 {
	out := make([]float64, len(xs))
	p := 1.0
	for i := 0; i < digits; i++ {
		p *= 10
	}
	for i, x := range xs {
		out[i] = float64(int64(x*p+0.5)) / p
	}
	return out
}

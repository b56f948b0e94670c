package verilog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"testing"

	"gatewords/internal/bench"
	"gatewords/internal/netlist"
	"gatewords/internal/synth"
)

// updateGoldens rewrites testdata/parse_goldens.json from the current code:
//
//	go test ./internal/verilog/ -run TestParseGoldens -update-goldens
//
// Regenerate only when a change is meant to alter what a source parses to
// (net or gate IDs, names, pin or fanout order, fingerprints or error
// texts), and say so in the change description.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/parse_goldens.json")

const parseGoldensPath = "testdata/parse_goldens.json"

// parseGolden pins one parse: the digest of the canonical dump (see
// dumpNetlist) and the fingerprint of an accepted source, or the full
// error text of a rejected one. The net and gate counts are there to make
// a digest mismatch readable.
type parseGolden struct {
	Name        string `json:"name"`
	Nets        int    `json:"nets,omitempty"`
	Gates       int    `json:"gates,omitempty"`
	DumpSHA256  string `json:"dump_sha256,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
}

// dumpNetlist renders everything a parse decides, in ID order: each net's
// name, port marking, driver and fanout list, each gate's name, kind,
// output and input pins, the extra drivers of a lenient parse, and the
// structural violation texts. It appends with strconv rather than fmt to
// keep the race-detector run of TestParseGoldens short.
func dumpNetlist(nl *netlist.Netlist) []byte {
	b := append([]byte("module "), strconv.Quote(nl.Name)...)
	for i := 0; i < nl.NetCount(); i++ {
		n := nl.Net(netlist.NetID(i))
		b = strconv.AppendInt(append(b, "\nnet "...), int64(i), 10)
		b = strconv.AppendQuote(append(b, ' '), n.Name)
		b = strconv.AppendBool(append(b, " pi="...), n.IsPI)
		b = strconv.AppendBool(append(b, " po="...), n.IsPO)
		b = strconv.AppendInt(append(b, " driver="...), int64(n.Driver), 10)
		b = appendIDs(append(b, " fanout="...), n.Fanout)
	}
	for i := 0; i < nl.GateCount(); i++ {
		g := nl.Gate(netlist.GateID(i))
		b = strconv.AppendInt(append(b, "\ngate "...), int64(i), 10)
		b = strconv.AppendQuote(append(b, ' '), g.Name)
		b = append(append(b, ' '), g.Kind.String()...)
		b = strconv.AppendInt(append(b, " out="...), int64(g.Output), 10)
		b = appendIDs(append(b, " in="...), g.Inputs)
	}
	for _, e := range nl.ExtraDrivers() {
		b = fmt.Appendf(b, "\nextra net=%d gate=%d", e.Net, e.Gate)
	}
	for _, v := range nl.StructuralViolations() {
		b = fmt.Appendf(b, "\nviolation %s gate=%d net=%d %s", v.Code, v.Gate, v.Net, v.Msg)
	}
	return append(b, '\n')
}

// appendIDs appends a comma-separated ID list.
func appendIDs[T netlist.NetID | netlist.GateID](b []byte, ids []T) []byte {
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return b
}

// goldenInput is one source TestParseGoldens parses.
type goldenInput struct {
	name    string
	file    string
	src     string
	lenient bool
}

// goldenInputs lists every pinned source: the Table-1 analogs and their
// resyntheses (NAND muxes, fanin cap 2) as Write emits them, the
// hand-written netlists under the repository's testdata, the ParseLenient
// fixtures, and the TestParseErrors cases. With skipLarge, b14a and the
// larger analogs are left out.
func goldenInputs(t *testing.T, skipLarge bool) []goldenInput {
	t.Helper()
	var ins []goldenInput
	large := false
	for _, p := range bench.Profiles {
		large = large || p.Name == "b14a"
		if large && skipLarge {
			continue
		}
		gen, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		alt, err := gen.Resynthesize(synth.Options{MuxStyle: synth.MuxNand, MaxFanin: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name string
			nl   *netlist.Netlist
		}{{p.Name, gen.NL}, {p.Name + "_resynth", alt}} {
			src, err := WriteString(v.nl)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, goldenInput{name: v.name, file: v.name + ".v", src: src})
		}
	}
	for _, f := range []string{"figure1.v", "counter_style.v"} {
		path := "../../testdata/" + f
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, goldenInput{name: "testdata/" + f, file: path, src: string(raw)})
	}
	for _, l := range []struct{ name, src string }{
		{"multi-driver", lenientMultiDriverSrc},
		{"bad-arity", lenientBadAritySrc},
		{"undriven", lenientUndrivenSrc},
		{"clean", lenientCleanSrc},
		{"syntax", lenientSyntaxSrc},
	} {
		ins = append(ins, goldenInput{name: "lenient/" + l.name, file: "t.v", src: l.src, lenient: true})
	}
	for _, c := range parseErrorCases {
		ins = append(ins, goldenInput{name: "error/" + c.name, file: "t.v", src: c.src})
	}
	return ins
}

// observeParse parses one input and collects its golden record, plus the
// dump of an accepted source.
func observeParse(in goldenInput) (parseGolden, []byte) {
	parse := Parse
	if in.lenient {
		parse = ParseLenient
	}
	nl, err := parse(in.file, in.src)
	if err != nil {
		return parseGolden{Name: in.name, Error: err.Error()}, nil
	}
	dump := dumpNetlist(nl)
	sum := sha256.Sum256(dump)
	return parseGolden{
		Name:        in.name,
		Nets:        nl.NetCount(),
		Gates:       nl.GateCount(),
		DumpSHA256:  hex.EncodeToString(sum[:]),
		Fingerprint: nl.Fingerprint(),
	}, dump
}

// TestParseGoldens is the behaviour lock for the front end: for every
// pinned source, what it parses to (every NetID, GateID, name, pin and
// fanout order, extra driver and violation) and its fingerprint, or its
// full file:line:col error text, must match the committed goldens exactly.
// It also checks that ParseLenient builds the same netlist as Parse on
// every source Parse accepts. b14a and the larger analogs are skipped under
// -short.
func TestParseGoldens(t *testing.T) {
	ins := goldenInputs(t, testing.Short() && !*updateGoldens)
	got := make([]parseGolden, len(ins))
	for i, in := range ins {
		var dump []byte
		got[i], dump = observeParse(in)
		if in.lenient || dump == nil {
			continue
		}
		lenient, err := ParseLenient(in.file, in.src)
		if err != nil {
			t.Errorf("%s: ParseLenient rejected what Parse accepted: %v", in.name, err)
		} else if !bytes.Equal(dumpNetlist(lenient), dump) {
			t.Errorf("%s: ParseLenient and Parse build different netlists", in.name)
		}
	}
	if *updateGoldens {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parseGoldensPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(parseGoldensPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-goldens)", err)
	}
	var want []parseGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]parseGolden, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	if len(byName) != len(want) || !testing.Short() && len(want) != len(got) {
		t.Fatalf("%d golden records for %d inputs (regenerate with -update-goldens)", len(want), len(got))
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: no golden record (regenerate with -update-goldens)", g.Name)
		} else if g != w {
			t.Errorf("%s: parsed to %+v, want %+v", g.Name, g, w)
		}
	}
}

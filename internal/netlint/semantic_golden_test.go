package netlint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"gatewords/internal/bench"
)

// updateGoldens rewrites testdata/semantic_goldens.json from the current
// code:
//
//	go test ./internal/netlint/ -run TestGoldenSemanticDiagnostics -update-goldens
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/semantic_goldens.json")

const semanticGoldensPath = "testdata/semantic_goldens.json"

// semanticGolden pins one analog's Config{Semantic: true} run: the digest of
// its JSON diagnostics, and the per-rule counts that make a digest mismatch
// readable.
type semanticGolden struct {
	Name       string         `json:"name"`
	JSONSHA256 string         `json:"json_sha256"`
	Rules      map[string]int `json:"rules"`
}

// TestGoldenSemanticDiagnostics pins the full diagnostics, the NL4xx
// semantic family included, of the b14 and b15 analogs. The b14a golden in
// golden_test.go runs Config{}, which leaves the semantic rules off.
func TestGoldenSemanticDiagnostics(t *testing.T) {
	var got []semanticGolden
	for _, name := range []string{"b14a", "b15a"} {
		p, ok := bench.ProfileByName(name)
		if !ok {
			t.Fatalf("benchmark %s not registered", name)
		}
		gen, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		res := Run(gen.NL, Config{Semantic: true})
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		g := semanticGolden{Name: name, JSONSHA256: hex.EncodeToString(sum[:]), Rules: make(map[string]int)}
		for _, d := range res.Diagnostics {
			g.Rules[d.Rule]++
		}
		got = append(got, g)
	}

	if *updateGoldens {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(semanticGoldensPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(semanticGoldensPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-goldens)", err)
	}
	var want []semanticGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d golden records, want %d (regenerate with -update-goldens)", len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name {
			t.Fatalf("record %d is %s, golden %s", i, g.Name, w.Name)
		}
		if !reflect.DeepEqual(g.Rules, w.Rules) {
			t.Errorf("%s: rule counts %v, golden %v", g.Name, g.Rules, w.Rules)
		}
		if g.JSONSHA256 != w.JSONSHA256 {
			t.Errorf("%s: diagnostics digest %s, golden %s", g.Name, g.JSONSHA256, w.JSONSHA256)
		}
	}
}

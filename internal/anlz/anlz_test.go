package anlz

import (
	"go/token"
	"testing"
)

func TestPackageMatch(t *testing.T) {
	cases := []struct {
		patterns []string
		path     string
		want     bool
	}{
		{nil, "anything", true},
		{[]string{"gatewords"}, "gatewords", true},
		{[]string{"gatewords"}, "gatewords/internal/core", false},
		{[]string{"gatewords/internal/core"}, "gatewords/internal/core", true},
		{[]string{"gatewords/internal/..."}, "gatewords/internal/core", true},
		{[]string{"gatewords/internal/..."}, "gatewords/internal", true},
		{[]string{"gatewords/internal/..."}, "gatewords/internalx", false},
		{[]string{"a", "b"}, "b", true},
	}
	for _, c := range cases {
		if got := PackageMatch(c.patterns, c.path); got != c.want {
			t.Errorf("PackageMatch(%v, %q) = %v, want %v", c.patterns, c.path, got, c.want)
		}
	}
}

func TestSortDiagnosticsDeterministic(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) Diagnostic {
		return newDiagnostic(analyzer, token.Position{Filename: file, Line: line, Column: col}, msg)
	}
	ds := []Diagnostic{
		mk("b.go", 1, 1, "x", "m"),
		mk("a.go", 2, 1, "x", "m"),
		mk("a.go", 1, 5, "x", "m"),
		mk("a.go", 1, 1, "y", "m"),
		mk("a.go", 1, 1, "x", "n"),
		mk("a.go", 1, 1, "x", "m"),
	}
	sortDiagnostics(ds)
	var got []string
	for _, d := range ds {
		got = append(got, d.String())
	}
	want := []string{
		"a.go:1:1: x: m",
		"a.go:1:1: x: n",
		"a.go:1:1: y: m",
		"a.go:1:5: x: m",
		"a.go:2:1: x: m",
		"b.go:1:1: x: m",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestLoaderModulePath smoke-tests loader construction against the real
// module root.
func TestLoaderModulePath(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath() != "gatewords" {
		t.Errorf("module path = %q, want gatewords", l.ModulePath())
	}
}

// TestDiagnosticJSONMirror pins that the JSON mirror fields are populated by
// construction.
func TestDiagnosticJSONMirror(t *testing.T) {
	d := newDiagnostic("mapdet", token.Position{Filename: "f.go", Line: 3, Column: 7}, "msg")
	if d.File != "f.go" || d.Line != 3 || d.Col != 7 {
		t.Errorf("mirror fields = %q:%d:%d, want f.go:3:7", d.File, d.Line, d.Col)
	}
}

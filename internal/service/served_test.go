package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"gatewords"
	"gatewords/internal/report"
)

// TestServedBytesEqualDirectRun is the cache-transparency property. Over
// randomized submissions of the small Table-1 analogs — gate-line
// permutations, consistent net renames, whitespace and comment edits, and
// the bench route next to its rendered Verilog, under a few option sets and
// in a random order with repeats — every served report, hit or miss, must
// equal a direct run (ParseVerilogString or GenerateBenchmark, Identify,
// WriteJSON) of that exact request, runtime zeroed. A cache hit may answer
// only a request byte-identical to one already completed under equal
// normalized options, and every such repeat must hit.
func TestServedBytesEqualDirectRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	optionSets := []JobOptions{{}, {IncludeAll: true}, {Depth: 3}}
	var distinct []SubmitRequest
	for _, p := range []string{"b03a", "b04a", "b05a", "b07a", "b08a", "b11a", "b12a", "b13a"} {
		v := benchVerilog(t, p)
		srcs := []string{
			v,
			permuteGateLines(t, v, func(idx []int) {
				for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
					idx[i], idx[j] = idx[j], idx[i]
				}
			}),
			permuteGateLines(t, v, func(idx []int) {
				rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			}),
			renameNets(t, rng, v),
			editWhitespace(rng, v),
			addComments(rng, v),
		}
		opts := optionSets[rng.Intn(len(optionSets))]
		distinct = append(distinct, SubmitRequest{Bench: p, Options: opts})
		for _, src := range srcs {
			distinct = append(distinct, SubmitRequest{Verilog: src, Options: optionSets[rng.Intn(len(optionSets))]})
		}
		// The same text under other options is another request.
		distinct = append(distinct, SubmitRequest{Verilog: v, Options: JobOptions{IncludeAll: true, Depth: 3}})
	}
	// Every request once, a third of them again (some with a different
	// worker count, which normalizes away), in a random order.
	submissions := append([]SubmitRequest(nil), distinct...)
	for _, i := range rng.Perm(len(distinct))[:len(distinct)/3] {
		repeat := distinct[i]
		repeat.Options.Workers = rng.Intn(3)
		submissions = append(submissions, repeat)
	}
	rng.Shuffle(len(submissions), func(i, j int) { submissions[i], submissions[j] = submissions[j], submissions[i] })

	_, ts := newTestServer(t, Config{Workers: 2})
	want := map[string][]byte{} // normalized request -> direct report
	completed := map[string]bool{}
	for n, req := range submissions {
		id := requestID(req)
		if _, ok := want[id]; !ok {
			want[id] = directReport(t, req)
		}
		st, code := postJob(t, ts, req)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", n, code)
		}
		final := awaitJob(t, ts, st.ID)
		if final.Status != StateDone {
			t.Fatalf("submission %d ended %q: %s", n, final.Status, final.Error)
		}
		switch {
		case st.Cached && !completed[id]:
			t.Errorf("submission %d (%s) was served from the cache, but no byte-identical request had completed", n, describe(req))
		case !st.Cached && completed[id]:
			t.Errorf("submission %d (%s) repeats a completed request but missed the cache", n, describe(req))
		}
		if got := normalizedReport(t, final.Report); !bytes.Equal(got, want[id]) {
			t.Errorf("submission %d (%s, cached=%v): served report differs from a direct run of the same request",
				n, describe(req), st.Cached)
		}
		completed[id] = true
	}
}

// requestID identifies a request up to option normalization.
func requestID(req SubmitRequest) string {
	o := req.Options
	o.Workers = 0
	return fmt.Sprintf("%q|%q|%q|%+v", req.Bench, req.Top, req.Verilog, o)
}

func describe(req SubmitRequest) string {
	opts, _ := json.Marshal(req.Options) // struct of scalars; cannot fail
	if req.Bench != "" {
		return fmt.Sprintf("bench %s, options %s", req.Bench, opts)
	}
	return fmt.Sprintf("%d bytes of Verilog, options %s", len(req.Verilog), opts)
}

// directReport runs req without the service: parse or generate, Identify,
// WriteJSON, normalized as normalizedReport.
func directReport(t *testing.T, req SubmitRequest) []byte {
	t.Helper()
	var d *gatewords.Design
	var err error
	if req.Bench != "" {
		d, err = gatewords.GenerateBenchmark(req.Bench)
	} else {
		d, err = gatewords.ParseVerilogString("request.v", req.Verilog)
	}
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gatewords.Identify(d, gatewords.Options{Depth: req.Options.Depth})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gatewords.WriteJSON(&buf, d, rep, nil, req.Options.IncludeAll, 0); err != nil {
		t.Fatal(err)
	}
	return normalizedReport(t, buf.Bytes())
}

// normalizedReport re-renders a report document with its runtime zeroed,
// the one field that records wall time.
func normalizedReport(t *testing.T, b []byte) []byte {
	t.Helper()
	doc, err := report.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("report did not parse: %v", err)
	}
	doc.Runtime = 0
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// permuteGateLines reorders the gate-instance lines of a rendered netlist
// with perm, leaving declarations in place: the same circuit, declared in
// a different file order.
func permuteGateLines(t *testing.T, src string, perm func(idx []int)) string {
	t.Helper()
	lines := strings.Split(src, "\n")
	var idx []int
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "module", "input", "output", "wire", "endmodule":
			continue
		}
		if strings.Contains(l, "(") {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		t.Fatal("no gate lines found to reorder")
	}
	gates := make([]string, len(idx))
	for k, i := range idx {
		gates[k] = lines[i]
	}
	order := make([]int, len(idx))
	for k := range order {
		order[k] = k
	}
	perm(order)
	for k, i := range idx {
		lines[i] = gates[order[k]]
	}
	return strings.Join(lines, "\n")
}

// renameNets applies one random bijection to the declared net names of a
// rendered netlist, everywhere they occur.
func renameNets(t *testing.T, rng *rand.Rand, src string) string {
	t.Helper()
	var names []string
	for _, l := range strings.Split(src, "\n") {
		f := strings.Fields(l)
		if len(f) >= 2 && (f[0] == "input" || f[0] == "output" || f[0] == "wire") {
			names = append(names, strings.TrimSuffix(f[1], ";"))
		}
	}
	if len(names) == 0 {
		t.Fatal("no net declarations found to rename")
	}
	to := make(map[string]string, len(names))
	for i, k := range rng.Perm(len(names)) {
		to[names[i]] = fmt.Sprintf("rn%d", k)
	}
	var b strings.Builder
	for i := 0; i < len(src); {
		j := i
		switch c := src[i]; {
		case c == '\\': // escaped identifier: up to the next whitespace
			for j < len(src) && !strings.ContainsRune(" \t\n", rune(src[j])) {
				j++
			}
		case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			for j < len(src) && (src[j] == '_' || src[j] == '$' || 'a' <= src[j] && src[j] <= 'z' ||
				'A' <= src[j] && src[j] <= 'Z' || '0' <= src[j] && src[j] <= '9') {
				j++
			}
		default:
			b.WriteByte(c)
			i++
			continue
		}
		if name, ok := to[src[i:j]]; ok {
			b.WriteString(name)
		} else {
			b.WriteString(src[i:j])
		}
		i = j
	}
	return b.String()
}

// editWhitespace re-indents lines, widens the spaces between tokens on some
// of them and inserts blank lines, leaving every token intact.
func editWhitespace(rng *rand.Rand, src string) string {
	indents := []string{"", "\t", "      "}
	var out []string
	for _, l := range strings.Split(src, "\n") {
		l = strings.TrimLeft(l, " ")
		if rng.Intn(4) == 0 {
			l = strings.ReplaceAll(l, " ", "   ")
		}
		out = append(out, indents[rng.Intn(len(indents))]+l+strings.Repeat(" ", rng.Intn(3)))
		if rng.Intn(8) == 0 {
			out = append(out, "")
		}
	}
	return strings.Join(out, "\n")
}

// addComments inserts line and block comments between and inside lines.
func addComments(rng *rand.Rand, src string) string {
	var out []string
	for i, l := range strings.Split(src, "\n") {
		switch rng.Intn(6) {
		case 0:
			out = append(out, fmt.Sprintf("// note %d: (a, b);", i))
		case 1:
			l = fmt.Sprintf("/* block %d */ %s", i, l)
		case 2:
			if l != "" {
				l += fmt.Sprintf(" // trailing %d", i)
			}
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

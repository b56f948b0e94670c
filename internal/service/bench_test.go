package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"gatewords"
	"gatewords/internal/bench"
	"gatewords/internal/verilog"
)

// BenchmarkSubmitHit measures one cache hit through Handler() with the
// journal on: the rendered b14a analog (about 0.5 MB of Verilog, a
// b14a-class submission of the serve workload) posted again after its first
// run completed. Run it with -cpu 1, as the serve workload holds the
// runtime to one processor.
func BenchmarkSubmitHit(b *testing.B) {
	d, err := gatewords.GenerateBenchmark("b14a")
	if err != nil {
		b.Fatal(err)
	}
	var src bytes.Buffer
	if err := d.WriteVerilog(&src); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{Verilog: src.String()})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Workers: 1, JournalPath: filepath.Join(b.TempDir(), "jobs.wal")})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	runMiss(b, s, h, body)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(h, body); rec.Code != http.StatusOK {
			b.Fatalf("resubmission: status %d, want 200 (cache hit)", rec.Code)
		}
	}
}

// BenchmarkReplay measures a daemon start-up on a journal shaped like the
// serve workload's set-up: two b14a-class and six small sources, each
// submitted as a miss and then as a cache hit, so 16 jobs to restore.
// Each op is one New and Close; the replay is nearly all of it.
func BenchmarkReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "jobs.wal")
	s, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	var sources []string
	for seed := int64(1); seed <= 2; seed++ {
		p, _ := bench.ProfileByName("b14a")
		p.Name, p.Seed = fmt.Sprintf("b14a_%d", seed), seed
		g, err := p.Generate()
		if err != nil {
			b.Fatal(err)
		}
		src, err := verilog.WriteString(g.NL)
		if err != nil {
			b.Fatal(err)
		}
		sources = append(sources, src)
	}
	for _, name := range []string{"b03a", "b04a", "b05a", "b07a", "b08a", "b11a"} {
		sources = append(sources, benchVerilog(b, name))
	}
	for _, src := range sources {
		body, err := json.Marshal(SubmitRequest{Verilog: src})
		if err != nil {
			b.Fatal(err)
		}
		runMiss(b, s, h, body)
		if rec := post(h, body); rec.Code != http.StatusOK {
			b.Fatalf("resubmission: status %d, want 200 (cache hit)", rec.Code)
		}
	}
	s.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{JournalPath: path})
		if err != nil {
			b.Fatal(err)
		}
		restored := s.Recovery().Restored
		s.Close()
		if restored != 2*len(sources) {
			b.Fatalf("replay restored %d jobs, want %d", restored, 2*len(sources))
		}
	}
}

// post submits body through h.
func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

// runMiss submits body, which must be a miss, and waits for its job.
func runMiss(b *testing.B, s *Server, h http.Handler, body []byte) {
	b.Helper()
	rec := post(h, body)
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusAccepted {
		b.Fatalf("first submission: status %d, %v", rec.Code, err)
	}
	job, ok := s.Lookup(st.ID)
	if !ok {
		b.Fatalf("job %s unknown", st.ID)
	}
	<-job.Done
}

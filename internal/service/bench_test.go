package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"gatewords"
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
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}

	first := post()
	var st JobStatus
	if err := json.Unmarshal(first.Body.Bytes(), &st); err != nil || first.Code != http.StatusAccepted {
		b.Fatalf("first submission: status %d, %v", first.Code, err)
	}
	job, ok := s.Lookup(st.ID)
	if !ok {
		b.Fatalf("job %s unknown", st.ID)
	}
	<-job.Done

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(); rec.Code != http.StatusOK {
			b.Fatalf("resubmission: status %d, want 200 (cache hit)", rec.Code)
		}
	}
}

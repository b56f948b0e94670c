package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gatewords/internal/guard"
	"gatewords/internal/report"
)

// htmlChars are the characters a JSON Encoder escapes in strings by
// default: '<', '>' and '&' for HTML, and U+2028 LINE SEPARATOR for
// JavaScript.
const htmlChars = "<>&\xe2\x80\xa8"

// escapedDesign renders bench design name with its module renamed to
// module and every declared net renamed to an escaped identifier that
// carries tag and htmlChars. Equal-length module names and tags
// give equal-length texts.
func escapedDesign(t *testing.T, name, module, tag string) string {
	t.Helper()
	src := benchVerilog(t, name)
	head := "module " + name + " ("
	if !strings.HasPrefix(src, head) {
		t.Fatalf("%s does not start with %q", name, head)
	}
	src = `module \` + module + htmlChars + " (" + src[len(head):]
	return mapNets(t, src, func(names []string) map[string]string {
		to := make(map[string]string, len(names))
		for _, n := range names {
			to[n] = `\` + strings.TrimPrefix(n, `\`) + tag + htmlChars + " "
		}
		return to
	})
}

// get fetches path through h.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// wantResponse is the body a job status response carries: the JobStatus
// built from the job's fields, its report attached once it is done,
// through an Encoder that indents by two spaces.
func wantResponse(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	job, ok := s.Lookup(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	return encodeStatus(s, job)
}

// encodeStatus is wantResponse for a job already looked up.
func encodeStatus(s *Server, job *Job) []byte {
	s.mu.Lock()
	st := JobStatus{
		ID:            job.ID,
		Status:        job.State,
		Module:        job.Module,
		Key:           job.Key,
		Cached:        job.Cached,
		CoalescedWith: job.CoalescedWith,
		Interrupted:   job.Interrupted,
		Error:         job.Err,
	}
	if job.State == StateDone {
		st.Report = job.Report
	}
	s.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck // strings, bools and a valid report
	return buf.Bytes()
}

// checkResponse requires a response with status code whose body is the
// job's wantResponse, and returns the job's ID.
func checkResponse(t *testing.T, s *Server, what string, rec *httptest.ResponseRecorder, code int) string {
	t.Helper()
	if rec.Code != code {
		t.Fatalf("%s: status %d, want %d: %s", what, rec.Code, code, rec.Body.Bytes())
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := wantResponse(t, s, st.ID); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("%s: responded\n%s\nwant\n%s", what, rec.Body.Bytes(), want)
	}
	return st.ID
}

// awaitDone waits for job id to be terminal.
func awaitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	job, ok := s.Lookup(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	<-job.Done
}

// rawReport is report with the JSON escapes of '<', '>', '&' and U+2028
// written as the characters themselves: still valid JSON for the same
// document, as a writer that does not escape for HTML stores it.
func rawReport(report []byte) []byte {
	for _, c := range htmlChars {
		esc, _ := json.Marshal(string(c)) // a quoted escape; cannot fail
		report = bytes.ReplaceAll(report, esc[1:len(esc)-1], []byte(string(c)))
	}
	return report
}

// appendForeignPrimary appends to the journal at path, creating it, the
// accepted and done records of a completed primary job whose report bytes
// hold '<', '>', '&' and U+2028 unescaped. The records are framed by hand:
// the journal's own writer never produces such bytes, but replay accepts
// them.
func appendForeignPrimary(t *testing.T, path, id, key, module string, report []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	acc, err := json.Marshal(acceptedData{Key: key, Module: module})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{
		[]byte(`{"job":"` + id + `","event":"accepted","data":` + string(acc) + `}`),
		[]byte(`{"job":"` + id + `","event":"done","data":{"report":` + string(report) + `}}`),
	} {
		var header [8]byte
		binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
		if _, err := f.Write(append(header[:], payload...)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResponseBytes pins the bytes of every job status response that
// carries a report, and of the failed and queued ones around them, to the
// job's JobStatus through a two-space indenting Encoder. The design's
// module and net names hold '<', '>', '&' and U+2028, which that Encoder
// escapes. Covered: a decode-path miss (queued) and its GET, a coalesced
// duplicate and its GET, a raw hit and a decode-path hit, a
// deadline-interrupted job's GET, a failed job's GET, and after a restart
// on the journal, the restored jobs' GETs and hits on a re-seeded entry,
// one of them a report journaled with those characters unescaped.
func TestResponseBytes(t *testing.T) {
	guard.Reset()
	t.Cleanup(guard.Reset)
	path := filepath.Join(t.TempDir(), "jobs.wal")
	s := mustNew(t, Config{Workers: 1, JournalPath: path})
	s.testJobGate = make(chan struct{})
	h := s.Handler()

	src := escapedDesign(t, "b03a", "lock", "w")
	req := SubmitRequest{Verilog: src, Options: JobOptions{IncludeAll: true}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// The same request with its fields in another order: a decode-path hit.
	verilog, _ := json.Marshal(src)
	reordered := []byte(`{"options":{"include_all":true},"verilog":` + string(verilog) + `}`)

	// The deadline job runs first: once a run has set the latency estimate,
	// admission refuses a deadline that short.
	interrupted := checkResponse(t, s, "deadline job", post(h, []byte(`{"bench":"b14a","options":{"timeout_ms":1}}`)), http.StatusAccepted)
	primary := checkResponse(t, s, "decode-path miss", post(h, body), http.StatusAccepted)
	dup := checkResponse(t, s, "coalesced duplicate", post(h, body), http.StatusAccepted)
	if job, _ := s.Lookup(dup); job.CoalescedWith != primary {
		t.Fatalf("duplicate %s did not coalesce with %s", dup, primary)
	}
	s.testJobGate <- struct{}{}
	awaitDone(t, s, interrupted)
	if job, _ := s.Lookup(interrupted); !job.Interrupted {
		t.Fatal("b14a finished within its 1 ms deadline; no interrupted job to check")
	}
	checkResponse(t, s, "interrupted job's GET", get(h, "/v1/jobs/"+interrupted), http.StatusOK)
	s.testJobGate <- struct{}{}
	awaitDone(t, s, dup)
	checkResponse(t, s, "miss's GET", get(h, "/v1/jobs/"+primary), http.StatusOK)
	checkResponse(t, s, "coalesced duplicate's GET", get(h, "/v1/jobs/"+dup), http.StatusOK)
	if job, _ := s.Lookup(primary); !bytes.Contains(rawReport(job.Report), []byte("w"+htmlChars)) {
		t.Fatal("the report names no net with the escaped characters")
	}

	rawHit := checkResponse(t, s, "raw hit", post(h, body), http.StatusOK)
	decodeHit := checkResponse(t, s, "decode-path hit", post(h, reordered), http.StatusOK)
	checkResponse(t, s, "raw hit's GET", get(h, "/v1/jobs/"+rawHit), http.StatusOK)
	checkResponse(t, s, "decode-path hit's GET", get(h, "/v1/jobs/"+decodeHit), http.StatusOK)

	guard.PlantN("job:b04a", guard.AnyGroup, 1)
	failed := checkResponse(t, s, "poisoned job", post(h, []byte(`{"bench":"b04a"}`)), http.StatusAccepted)
	s.testJobGate <- struct{}{}
	awaitDone(t, s, failed)
	checkResponse(t, s, "failed job's GET", get(h, "/v1/jobs/"+failed), http.StatusOK)
	s.Close()

	// A primary journaled by a writer that does not escape for HTML, under
	// the key of a text that a hit answers without parsing.
	const foreign = "job-000900"
	foreignReq := Source{Verilog: "// restored unescaped"}
	p, _ := s.Lookup(primary)
	appendForeignPrimary(t, path, foreign, requestKey(foreignReq, JobOptions{}), "foreign"+htmlChars, rawReport(p.Report))

	s2 := mustNew(t, Config{Workers: 1, JournalPath: path})
	t.Cleanup(s2.Close)
	h2 := s2.Handler()
	if rec := s2.Recovery(); rec.Restored != 7 || rec.Interrupted != 0 {
		t.Fatalf("recovery: %+v, want 7 restored", rec)
	}
	for _, id := range []string{primary, dup, rawHit, decodeHit, interrupted, failed, foreign} {
		checkResponse(t, s2, "restored "+id+"'s GET", get(h2, "/v1/jobs/"+id), http.StatusOK)
	}
	checkResponse(t, s2, "decode-path hit after restart", post(h2, body), http.StatusOK)
	checkResponse(t, s2, "raw hit after restart", post(h2, body), http.StatusOK)
	foreignBody, _ := json.Marshal(SubmitRequest{Verilog: foreignReq.Verilog})
	checkResponse(t, s2, "hit on the unescaped report", post(h2, foreignBody), http.StatusOK)
	checkResponse(t, s2, "hit on the unescaped report again", post(h2, foreignBody), http.StatusOK)
}

// TestConcurrentBodyReuse races clients that post bodies of one length and
// different bytes, which pass through the same pooled body buffers. First
// every client posts every text: misses and coalesced duplicates of the
// fresh texts, decode-path hits of the journaled ones. Then all clients
// fetch each job at once, which renders a report's response form unless a
// hit already has. Last, every client posts every text again, as raw hits
// and decode-path hits. Every served report must equal a direct run of its
// own text, every job's Module and Key must be its own, and every response
// that carries a report must be the job's encoded JobStatus byte for byte.
// The journaled texts' reports are stored with '<', '>', '&' and U+2028
// unescaped, so their responses must escape them.
func TestConcurrentBodyReuse(t *testing.T) {
	const texts, clients = 6, 6
	type text struct {
		body, reordered []byte
		key, module     string
		direct          []byte
	}
	tx := make([]text, texts)
	path := filepath.Join(t.TempDir(), "jobs.wal")
	for k := range tx {
		src := escapedDesign(t, "b03a", fmt.Sprintf("m%d", k), fmt.Sprintf("t%d", k))
		body, err := json.Marshal(SubmitRequest{Verilog: src})
		if err != nil {
			t.Fatal(err)
		}
		verilog, _ := json.Marshal(src)
		tx[k] = text{
			body:      body,
			reordered: []byte(`{"options":{},"verilog":` + string(verilog) + `}`),
			key:       requestKey(Source{Verilog: src}, JobOptions{}),
			module:    fmt.Sprintf("m%d", k) + htmlChars,
			direct:    directReport(t, SubmitRequest{Verilog: src}),
		}
		if len(tx[k].body) != len(tx[0].body) || len(tx[k].reordered) != len(tx[0].body) {
			t.Fatalf("text %d: bodies of %d and %d bytes, want %d", k, len(tx[k].body), len(tx[k].reordered), len(tx[0].body))
		}
		if k < texts/2 {
			appendForeignPrimary(t, path, jobID(int64(k+1)), tx[k].key, tx[k].module, rawReport(tx[k].direct))
		}
	}
	s := mustNew(t, Config{Workers: 2, JournalPath: path})
	t.Cleanup(s.Close)
	h := s.Handler()

	// check validates one response of text k and returns its job, or nil
	// after reporting what is wrong.
	check := func(what string, k int, rec *httptest.ResponseRecorder) *Job {
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Errorf("%s: status %d, %v", what, rec.Code, err)
			return nil
		}
		if st.Key != tx[k].key || st.Module != tx[k].module {
			t.Errorf("%s: job %s has key %s and module %q, want text %d's %s and %q", what, st.ID, st.Key, st.Module, k, tx[k].key, tx[k].module)
		}
		job, ok := s.Lookup(st.ID)
		if !ok {
			t.Errorf("%s: job %s unknown", what, st.ID)
			return nil
		}
		if st.Status != StateDone {
			return job
		}
		if want := encodeStatus(s, job); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: job %s responded\n%s\nwant\n%s", what, st.ID, rec.Body.Bytes(), want)
		}
		doc, err := report.Read(bytes.NewReader(st.Report))
		if err != nil {
			t.Errorf("%s: job %s: %v", what, st.ID, err)
			return job
		}
		doc.Runtime = 0
		var got bytes.Buffer
		if err := doc.Write(&got); err != nil || !bytes.Equal(got.Bytes(), tx[k].direct) {
			t.Errorf("%s: job %s served another report than a direct run of text %d", what, st.ID, k)
		}
		return job
	}
	// together runs f on every client at once.
	together := func(f func(c int)) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f(c)
			}()
		}
		close(start)
		wg.Wait()
	}

	// Each client posts every text once, starting at its own: misses and
	// coalesced duplicates of the fresh texts, decode-path hits of the
	// journaled ones.
	var mu sync.Mutex
	var jobs []*Job
	textOf := map[*Job]int{}
	together(func(c int) {
		for i := 0; i < texts; i++ {
			k := (c + i) % texts
			body := tx[k].body
			if c%2 == 1 {
				body = tx[k].reordered
			}
			if job := check(fmt.Sprintf("client %d, first post of text %d", c, k), k, post(h, body)); job != nil {
				mu.Lock()
				jobs = append(jobs, job)
				textOf[job] = k
				mu.Unlock()
			}
		}
	})
	// Every client fetches each job at once; the fresh texts' reports
	// render on the first of these fetches, or on a hit above.
	for _, job := range jobs {
		<-job.Done
		together(func(c int) {
			check(fmt.Sprintf("client %d, GET %s", c, job.ID), textOf[job], get(h, "/v1/jobs/"+job.ID))
		})
	}
	// Raw hits and decode-path hits of every text.
	together(func(c int) {
		for i := 0; i < texts; i++ {
			k := (c + i) % texts
			for _, body := range [][]byte{tx[k].body, tx[k].reordered, tx[k].body} {
				rec := post(h, body)
				if rec.Code != http.StatusOK {
					t.Errorf("client %d, resubmission of text %d: status %d", c, k, rec.Code)
					continue
				}
				check(fmt.Sprintf("client %d, resubmission of text %d", c, k), k, rec)
			}
		}
	})
	if m, _ := s.Metrics(); m.PipelineRuns != texts/2 {
		t.Errorf("pipeline runs = %d, want %d (one per fresh text)", m.PipelineRuns, texts/2)
	}
}

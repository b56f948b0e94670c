package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gatewords/internal/service/journal"
)

// postRaw posts body as is and returns the status code, the decoded status
// document (for 200 and 202) and the response bytes.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, JobStatus, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp.StatusCode, st, raw
}

// indexed reports whether the cache answers body's exact bytes without a
// decode, and checks that the raw index holds no more sums than entries.
func indexed(t *testing.T, s *Server, body string) bool {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cache.byBody) > s.cache.len() {
		t.Fatalf("raw index holds %d sums for %d cache entries", len(s.cache.byBody), s.cache.len())
	}
	_, ok := s.cache.byBody[sha256.Sum256([]byte(body))]
	return ok
}

// withoutID drops a response's "id" line, the one field two hits on the
// same report may differ in.
func withoutID(b []byte) string {
	var keep []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), `"id":`) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestRawBodyHit pins both ways into the cache. The exact bytes of a
// completed submission are answered from the raw index. A re-spaced body
// with its fields in another order is the same request through a decode:
// it hits the same entry and becomes the body the entry answers raw. Every
// hit is a 200 with the primary's key and report, and the same response
// bytes except for id, whichever way it came in.
func TestRawBodyHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	exact := `{"bench":"b03a","options":{"evaluate":true,"depth":3}}`
	respaced := "{ \"options\" : { \"depth\" : 3, \"evaluate\" : true },\n  \"bench\" : \"b03a\" }"

	code, first, _ := postRaw(t, ts, exact)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d", code)
	}
	done := awaitJob(t, ts, first.ID)
	if done.Status != StateDone {
		t.Fatalf("first submission ended %q: %s", done.Status, done.Error)
	}
	if !indexed(t, s, exact) {
		t.Fatal("a completed submission's body is not indexed")
	}

	var responses []string
	for _, step := range []struct {
		body string
		raw  bool // answered from the raw index
	}{
		{exact, true},
		{respaced, false},
		{respaced, true},
		{exact, false},
		{exact, true},
	} {
		if got := indexed(t, s, step.body); got != step.raw {
			t.Fatalf("before posting %q: indexed = %v, want %v", step.body, got, step.raw)
		}
		code, st, raw := postRaw(t, ts, step.body)
		if code != http.StatusOK || !st.Cached || st.Status != StateDone {
			t.Fatalf("hit on %q (raw %v): status %d, %+v", step.body, step.raw, code, st)
		}
		if st.Key != first.Key || !bytes.Equal(st.Report, done.Report) {
			t.Fatalf("hit on %q (raw %v) served key %s and other bytes than the primary", step.body, step.raw, st.Key)
		}
		if !indexed(t, s, step.body) {
			t.Fatalf("after a hit on %q its body is not indexed", step.body)
		}
		responses = append(responses, withoutID(raw))
	}
	for i, r := range responses[1:] {
		if r != responses[0] {
			t.Errorf("hit %d responded\n%s\nwant (as hit 0)\n%s", i+1, r, responses[0])
		}
	}
	m, _ := getMetrics(t, ts)
	if m.Server.PipelineRuns != 1 || m.Server.CacheHits != 5 || m.Server.JobsDone != 6 || m.Server.JobsAccepted != 6 {
		t.Errorf("runs/hits/done/accepted = %d/%d/%d/%d, want 1/5/6/6",
			m.Server.PipelineRuns, m.Server.CacheHits, m.Server.JobsDone, m.Server.JobsAccepted)
	}
}

// TestRawBodyNeverServesAnotherRequest pins that a body one option or one
// byte of Verilog away from a cached request misses, runs and serves its
// own report.
func TestRawBodyNeverServesAnotherRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := benchVerilog(t, "b03a")
	tab := strings.Replace(src, " ", "\t", 1)
	if len(tab) != len(src) || tab == src {
		t.Fatal("the one-byte variant is not one byte away")
	}
	body := func(req SubmitRequest) string {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	code, first, _ := postRaw(t, ts, body(SubmitRequest{Verilog: src}))
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d", code)
	}
	awaitJob(t, ts, first.ID)
	if code, st, _ := postRaw(t, ts, body(SubmitRequest{Verilog: src})); code != http.StatusOK || !st.Cached {
		t.Fatalf("exact resubmission: status %d, %+v", code, st)
	}
	for _, req := range []SubmitRequest{
		{Verilog: src, Options: JobOptions{Depth: 3}},
		{Verilog: tab},
	} {
		code, st, _ := postRaw(t, ts, body(req))
		if code != http.StatusAccepted || st.Cached || st.Key == first.Key {
			t.Fatalf("%s: status %d, %+v; want a miss under its own key", describe(req), code, st)
		}
		final := awaitJob(t, ts, st.ID)
		if final.Status != StateDone {
			t.Fatalf("%s ended %q: %s", describe(req), final.Status, final.Error)
		}
		if got := normalizedReport(t, final.Report); !bytes.Equal(got, directReport(t, req)) {
			t.Errorf("%s: served report differs from a direct run", describe(req))
		}
	}
}

// TestRawIndexBoundedByCache pins eviction: with one cache entry, a second
// request's report evicts the first's, its body drops out of the raw index
// with it, and the first body then misses and runs again. The index never
// holds more sums than the cache holds entries.
func TestRawIndexBoundedByCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	a, b := `{"bench":"b03a"}`, `{"bench":"b04a"}`
	run := func(body string) {
		t.Helper()
		code, st, _ := postRaw(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: status %d, want 202 (a miss)", body, code)
		}
		awaitJob(t, ts, st.ID)
	}
	run(a)
	if code, _, _ := postRaw(t, ts, a); code != http.StatusOK || !indexed(t, s, a) {
		t.Fatalf("%s again: status %d, want a raw hit", a, code)
	}
	run(b)
	if indexed(t, s, a) || !indexed(t, s, b) {
		t.Fatal("eviction left the raw index out of step with the cache")
	}
	run(a)
	if indexed(t, s, b) || !indexed(t, s, a) {
		t.Fatal("eviction left the raw index out of step with the cache")
	}
	m, _ := getMetrics(t, ts)
	if m.Server.PipelineRuns != 3 || m.Server.CacheHits != 1 || m.Server.CacheEntries != 1 {
		t.Errorf("runs/hits/entries = %d/%d/%d, want 3/1/1",
			m.Server.PipelineRuns, m.Server.CacheHits, m.Server.CacheEntries)
	}
}

// TestRawBodyRefusedWhileDrainingOrClosed pins that the raw path admits
// nothing the decode path would refuse: a body that would raw-hit gets 503
// once the server drains, and again once it is closed.
func TestRawBodyRefusedWhileDrainingOrClosed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"bench":"b03a"}`
	_, st, _ := postRaw(t, ts, body)
	awaitJob(t, ts, st.ID)
	if code, _, _ := postRaw(t, ts, body); code != http.StatusOK {
		t.Fatalf("resubmission: status %d, want 200", code)
	}
	s.StartDraining()
	if code, _, _ := postRaw(t, ts, body); code != http.StatusServiceUnavailable || !indexed(t, s, body) {
		t.Fatalf("while draining: status %d, want 503 for an indexed body", code)
	}
	s.Close()
	if code, _, _ := postRaw(t, ts, body); code != http.StatusServiceUnavailable {
		t.Fatalf("after close: status %d, want 503", code)
	}
	if m, _ := s.Metrics(); m.CacheHits != 1 || m.JobsAccepted != 2 {
		t.Errorf("hits/accepted = %d/%d, want 1/2", m.CacheHits, m.JobsAccepted)
	}
}

// TestJournalReplaysRawHits pins that a raw hit journals exactly what a
// decode hit of the same body journals, options included, and that a
// journal written with raw hits replays to the same jobs and bytes.
func TestJournalReplaysRawHits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	s1, ts1 := newTestServer(t, Config{Workers: 1, JournalPath: path})
	exact := `{"bench":"b03a"}`
	workers := `{"options":{"workers":2},"bench":"b03a"}` // the same request key
	_, first, _ := postRaw(t, ts1, exact)
	awaitJob(t, ts1, first.ID)
	ids := []string{first.ID}
	for _, step := range []struct {
		body string
		raw  bool
	}{
		{exact, true}, {workers, false}, {workers, true}, {exact, false}, {exact, true},
	} {
		if got := indexed(t, s1, step.body); got != step.raw {
			t.Fatalf("before posting %s: indexed = %v, want %v", step.body, got, step.raw)
		}
		code, st, _ := postRaw(t, ts1, step.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", step.body, code)
		}
		ids = append(ids, st.ID)
	}
	lived := make([]JobStatus, len(ids))
	for i, id := range ids {
		lived[i] = getJob(t, ts1, id)
	}
	ts1.Close()
	s1.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	records, torn, err := journal.Replay(f)
	f.Close()
	if err != nil || torn != 0 {
		t.Fatalf("reading the journal: torn %d, %v", torn, err)
	}
	accepted := map[string]string{}
	for _, r := range records {
		if r.Event == "accepted" {
			accepted[r.Job] = string(r.Data)
		}
	}
	// ids[1] and ids[5] are raw hits of exact, ids[4] a decode hit of it;
	// ids[3] is a raw hit of workers, ids[2] a decode hit of it.
	if a, b, c := accepted[ids[1]], accepted[ids[4]], accepted[ids[5]]; a != b || b != c || a == "" {
		t.Errorf("hits of %s journaled\n%s\n%s\n%s", exact, a, b, c)
	}
	if a, b := accepted[ids[2]], accepted[ids[3]]; a != b || !strings.Contains(a, `"workers":2`) {
		t.Errorf("hits of %s journaled\n%s\n%s", workers, a, b)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, JournalPath: path})
	if rec := s2.Recovery(); rec.Restored != len(ids) || rec.Interrupted != 0 || rec.TornRecords != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	for i, id := range ids {
		got := getJob(t, ts2, id)
		if got.Status != StateDone || got.Key != lived[i].Key || got.Module != lived[i].Module ||
			got.Cached != lived[i].Cached || !bytes.Equal(got.Report, lived[i].Report) {
			t.Errorf("%s after replay: %+v, want %+v", id, got, lived[i])
		}
	}
}

// TestRawHitsConcurrent races raw hits and decode hits of one request, which
// re-point its entry's body back and forth: every post is a 200 hit on the
// primary's report, and the counters balance.
func TestRawHitsConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	bodies := []string{`{"bench":"b03a"}`, `{ "bench" : "b03a" }`}
	_, first, _ := postRaw(t, ts, bodies[0])
	done := awaitJob(t, ts, first.ID)
	const clients, posts = 8, 6
	errs := make(chan string, clients*posts)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bodies[(c+i)%2]))
				if err != nil {
					errs <- err.Error()
					return
				}
				var st JobStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !st.Cached || !bytes.Equal(st.Report, done.Report) {
					errs <- fmt.Sprintf("client %d post %d: status %d, cached %v, %v", c, i, resp.StatusCode, st.Cached, err)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	indexed(t, s, bodies[0]) // fails the test if the index outgrew the cache
	if m, _ := s.Metrics(); m.CacheHits != clients*posts || m.PipelineRuns != 1 || m.JobsDone != clients*posts+1 {
		t.Errorf("hits/runs/done = %d/%d/%d, want %d/1/%d", m.CacheHits, m.PipelineRuns, m.JobsDone, clients*posts, clients*posts+1)
	}
}

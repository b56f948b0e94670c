package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gatewords"
	"gatewords/internal/guard"
	"gatewords/internal/report"
)

// mustNew starts a server, failing the test on construction errors.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer starts a server + HTTP front end and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req SubmitRequest) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitJob polls the HTTP API until the job is terminal.
func awaitJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getJob(t, ts, id)
		if st.Status == StateDone || st.Status == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) (MetricsDoc, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var doc MetricsDoc
	if err := json.Unmarshal(raw.Bytes(), &doc); err != nil {
		t.Fatalf("metrics did not parse: %v\n%s", err, raw.Bytes())
	}
	return doc, raw.Bytes()
}

// benchVerilog renders a generated benchmark as Verilog text, so tests can
// exercise the inline-Verilog submission path with a real netlist.
func benchVerilog(t testing.TB, name string) string {
	t.Helper()
	d, err := gatewords.GenerateBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSubmitBenchAndPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, code := postJob(t, ts, SubmitRequest{Bench: "b03a", Options: JobOptions{Evaluate: true}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	if st.ID == "" || st.Cached {
		t.Fatalf("submit response: %+v", st)
	}
	final := awaitJob(t, ts, st.ID)
	if final.Status != StateDone || final.Error != "" {
		t.Fatalf("job ended %q (error %q)", final.Status, final.Error)
	}
	doc, err := report.Read(bytes.NewReader(final.Report))
	if err != nil {
		t.Fatalf("report did not parse: %v", err)
	}
	if doc.Module != "b03a" || doc.Technique != "control-signals" {
		t.Errorf("report module/technique: %q/%q", doc.Module, doc.Technique)
	}
	if doc.Evaluation == nil || doc.Evaluation.ReferenceWords == 0 {
		t.Errorf("evaluation missing from report: %+v", doc.Evaluation)
	}
	if len(doc.Words) == 0 {
		t.Error("no words in report")
	}
}

// TestCacheHit pins the content-addressed cache contract: the same netlist
// submitted twice runs the pipeline once, the duplicate is served from the
// cache with byte-identical report JSON, and the hit/miss counters say so.
func TestCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	src := benchVerilog(t, "b03a")

	first, code := postJob(t, ts, SubmitRequest{Verilog: src})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	firstDone := awaitJob(t, ts, first.ID)

	second, code := postJob(t, ts, SubmitRequest{Verilog: src})
	if code != http.StatusOK {
		t.Fatalf("duplicate submit: status %d, want 200 (cache hit)", code)
	}
	if !second.Cached || second.Status != StateDone {
		t.Fatalf("duplicate not served from cache: %+v", second)
	}
	if !bytes.Equal(firstDone.Report, second.Report) {
		t.Error("cached report bytes differ from the original run")
	}
	if first.Key != second.Key {
		t.Errorf("keys differ for identical submissions: %s vs %s", first.Key, second.Key)
	}

	m, _ := getMetrics(t, ts)
	if m.Server.PipelineRuns != 1 {
		t.Errorf("pipeline_runs = %d, want 1", m.Server.PipelineRuns)
	}
	if m.Server.CacheHits != 1 || m.Server.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.Server.CacheHits, m.Server.CacheMisses)
	}
	if m.Server.CacheEntries != 1 {
		t.Errorf("cache_entries = %d, want 1", m.Server.CacheEntries)
	}
}

// TestCacheDisabled pins that a negative CacheEntries turns the cache off:
// a duplicate submitted after its original completed is accepted as a new
// job, runs the pipeline again and serves the same report.
func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	first, _ := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	a := awaitJob(t, ts, first.ID)
	second, code := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	if code != http.StatusAccepted || second.Cached {
		t.Fatalf("duplicate with the cache off: status %d, %+v", code, second)
	}
	b := awaitJob(t, ts, second.ID)
	if a.Status != StateDone || b.Status != StateDone {
		t.Fatalf("jobs ended %q and %q", a.Status, b.Status)
	}
	if !bytes.Equal(normalizedReport(t, a.Report), normalizedReport(t, b.Report)) {
		t.Error("the second run's report differs from the first's")
	}
	m, _ := getMetrics(t, ts)
	if m.Server.PipelineRuns != 2 || m.Server.CacheHits != 0 || m.Server.CacheEntries != 0 {
		t.Errorf("pipeline_runs/cache_hits/cache_entries = %d/%d/%d, want 2/0/0",
			m.Server.PipelineRuns, m.Server.CacheHits, m.Server.CacheEntries)
	}
}

// TestDifferentOptionsMissCache pins that the key covers options: the same
// netlist under different pipeline options is a distinct cache entry.
func TestDifferentOptionsMissCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	src := benchVerilog(t, "b03a")
	first, _ := postJob(t, ts, SubmitRequest{Verilog: src})
	awaitJob(t, ts, first.ID)
	second, code := postJob(t, ts, SubmitRequest{Verilog: src, Options: JobOptions{Depth: 3}})
	if code != http.StatusAccepted || second.Cached {
		t.Fatalf("different options served from cache: status %d, %+v", code, second)
	}
	awaitJob(t, ts, second.ID)
	// Workers, by contrast, does not change the output and is excluded.
	third, code := postJob(t, ts, SubmitRequest{Verilog: src, Options: JobOptions{Workers: 4}})
	if code != http.StatusOK || !third.Cached {
		t.Fatalf("workers-only variant missed the cache: status %d, %+v", code, third)
	}
}

// TestCoalescing pins in-flight dedupe: a duplicate of a job that is still
// queued attaches to it and shares its single pipeline execution.
func TestCoalescing(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	s.testJobGate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	src := benchVerilog(t, "b03a")
	blocker, _ := postJob(t, ts, SubmitRequest{Bench: "b08a"})
	primary, _ := postJob(t, ts, SubmitRequest{Verilog: src})
	dup, code := postJob(t, ts, SubmitRequest{Verilog: src})
	if code != http.StatusAccepted {
		t.Fatalf("duplicate submit: status %d", code)
	}
	if dup.CoalescedWith != primary.ID {
		t.Fatalf("duplicate did not coalesce with %s: %+v", primary.ID, dup)
	}
	s.testJobGate <- struct{}{} // release the blocker
	s.testJobGate <- struct{}{} // release the primary
	pDone := awaitJob(t, ts, primary.ID)
	dDone := awaitJob(t, ts, dup.ID)
	awaitJob(t, ts, blocker.ID)
	if !bytes.Equal(pDone.Report, dDone.Report) {
		t.Error("coalesced job's report differs from its primary's")
	}

	m, _ := getMetrics(t, ts)
	if m.Server.PipelineRuns != 2 {
		t.Errorf("pipeline_runs = %d, want 2 (blocker + primary)", m.Server.PipelineRuns)
	}
	if m.Server.JobsCoalesced != 1 || m.Server.JobsDone != 3 {
		t.Errorf("coalesced/done = %d/%d, want 1/3", m.Server.JobsCoalesced, m.Server.JobsDone)
	}
	s.Close()
}

// TestQueueFullRejected pins bounded admission: with the one worker held
// and the queue full, the next submission is refused with 503.
func TestQueueFullRejected(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	s.testJobGate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	first, _ := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	// Wait for the worker to take the first job off the queue (it then
	// blocks on the test gate), so the queue slot below is deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the first job")
		}
		time.Sleep(time.Millisecond)
	}
	second, _ := postJob(t, ts, SubmitRequest{Bench: "b08a"}) // fills the queue
	_, code := postJob(t, ts, SubmitRequest{Bench: "b04a"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d, want 503", code)
	}
	s.testJobGate <- struct{}{}
	s.testJobGate <- struct{}{}
	awaitJob(t, ts, first.ID)
	awaitJob(t, ts, second.ID)
	m, _ := getMetrics(t, ts)
	if m.Server.JobsRejected != 1 {
		t.Errorf("jobs_rejected = %d, want 1", m.Server.JobsRejected)
	}
	s.Close()
}

// TestMetricsMergedAndDeterministic pins the /metrics contract: the
// pipeline section reflects completed jobs' merged recorders, and repeated
// reads with no intervening work are byte-identical.
func TestMetricsMergedAndDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, _ := postJob(t, ts, SubmitRequest{Bench: "b08a"})
	awaitJob(t, ts, st.ID)

	doc, raw1 := getMetrics(t, ts)
	_, raw2 := getMetrics(t, ts)
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("metrics not byte-stable across reads:\n%s\n%s", raw1, raw2)
	}
	var pipeline struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(doc.Pipeline, &pipeline); err != nil {
		t.Fatalf("pipeline section did not parse: %v", err)
	}
	byName := map[string]int64{}
	for _, c := range pipeline.Counters {
		byName[c.Name] = c.Value
	}
	// b08a is the control-signal showcase row: a healthy run records trials
	// and reductions, which prove the per-job recorder reached /metrics.
	if byName["trials"] == 0 || byName["reductions"] == 0 {
		t.Errorf("merged pipeline counters missing work: %v", byName)
	}
}

// TestJobTimeoutInterrupted pins per-job deadlines: an aggressive timeout
// yields a done job whose report is marked interrupted, and interrupted
// results are not cached.
func TestJobTimeoutInterrupted(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	st, _ := postJob(t, ts, SubmitRequest{Bench: "b14a", Options: JobOptions{TimeoutMS: 1}})
	final := awaitJob(t, ts, st.ID)
	if final.Status != StateDone {
		t.Fatalf("job ended %q (error %q)", final.Status, final.Error)
	}
	if !final.Interrupted {
		t.Skip("machine fast enough to finish b14a in 1ms; nothing to assert")
	}
	doc, err := report.Read(bytes.NewReader(final.Report))
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Interrupted {
		t.Error("report does not carry the interrupted flag")
	}
	s.mu.Lock()
	entries := s.cache.len()
	s.mu.Unlock()
	if entries != 0 {
		t.Errorf("interrupted result was cached (%d entries)", entries)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, 400},
		{"both", `{"verilog":"module m(); endmodule","bench":"b03a"}`, 400},
		{"unknown-bench", `{"bench":"nope"}`, 400},
		{"bad-verilog", `{"verilog":"not verilog"}`, 400},
		{"bad-lint", `{"bench":"b03a","options":{"lint":"pedantic"}}`, 400},
		{"unknown-field", `{"bench":"b03a","nonsense":1}`, 400},
		{"top-with-bench", `{"bench":"b03a","top":"m"}`, 400},
		{"not-json", `hello`, 400},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// TestSubmitRechecksAfterParse pins Submit's post-parse re-check: request
// A is held between its parse and the second critical section while the
// identical request B parses and is admitted, and B's run is held in the
// queue. Released, A must find B in flight and coalesce onto it, so the
// two share one pipeline run.
func TestSubmitRechecksAfterParse(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	s.testJobGate = make(chan struct{})
	t.Cleanup(func() {
		close(s.testJobGate) // let a run still held at the gate finish
		s.Close()
	})
	held, release := make(chan struct{}), make(chan struct{})
	var parsed atomic.Int32
	s.testParseGate = func() {
		if parsed.Add(1) == 1 {
			close(held)
			<-release
		}
	}
	src := Source{Bench: "b03a"}
	type submitted struct {
		job *Job
		err error
	}
	first := make(chan submitted, 1)
	go func() {
		job, err := s.Submit(src, JobOptions{})
		first <- submitted{job, err}
	}()
	<-held
	b, err := s.Submit(src, JobOptions{})
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if b.CoalescedWith != "" || b.Cached {
		t.Fatalf("request B was not admitted as a primary: coalesced with %q, cached %v", b.CoalescedWith, b.Cached)
	}
	a := <-first
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.job.CoalescedWith != b.ID {
		t.Fatalf("request A, held after its parse, became %s coalesced with %q, want coalesced with %s", a.job.ID, a.job.CoalescedWith, b.ID)
	}
	s.testJobGate <- struct{}{} // release B's run
	<-a.job.Done
	<-b.Done
	if m, _ := s.Metrics(); m.PipelineRuns != 1 || m.JobsCoalesced != 1 {
		t.Errorf("pipeline_runs/jobs_coalesced = %d/%d, want 1/1", m.PipelineRuns, m.JobsCoalesced)
	}
}

// TestConcurrentSubmissions is the end-to-end acceptance scenario: many
// concurrent submissions with duplicate keys on a bounded pool all
// complete; duplicates share executions; /metrics balances.
func TestConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	src := benchVerilog(t, "b03a")
	submissions := []SubmitRequest{
		{Bench: "b03a"}, {Bench: "b08a"}, {Bench: "b07a"},
		{Verilog: src}, {Verilog: src}, {Verilog: src},
		{Bench: "b08a"}, {Bench: "b03a"}, {Bench: "b08a", Options: JobOptions{VerifyReduction: true}},
		{Bench: "b04a"}, {Bench: "b05a"}, {Verilog: src},
	}
	// The inline Verilog is a round-trip of generated b03a, but the key is
	// the exact request, so it and bench b03a are different requests.
	const distinctKeys = 7 // b03a, b03a verilog, b08a, b07a, b08a+verify, b04a, b05a

	type outcome struct {
		st   JobStatus
		code int
	}
	results := make(chan outcome, len(submissions))
	for _, req := range submissions {
		req := req
		go func() {
			st, code := postJob(t, ts, req)
			results <- outcome{st, code}
		}()
	}
	byKey := map[string][]JobStatus{}
	for range submissions {
		o := <-results
		if o.code != http.StatusAccepted && o.code != http.StatusOK {
			t.Fatalf("submission rejected with %d", o.code)
		}
		final := awaitJob(t, ts, o.st.ID)
		if final.Status != StateDone {
			t.Fatalf("job %s ended %q: %s", final.ID, final.Status, final.Error)
		}
		byKey[final.Key] = append(byKey[final.Key], final)
	}
	if len(byKey) != distinctKeys {
		t.Errorf("distinct keys = %d, want %d", len(byKey), distinctKeys)
	}
	for key, sts := range byKey {
		for _, st := range sts[1:] {
			if !bytes.Equal(st.Report, sts[0].Report) {
				t.Errorf("key %s: duplicate reports differ", key)
			}
		}
	}

	m, _ := getMetrics(t, ts)
	if m.Server.JobsDone != int64(len(submissions)) || m.Server.JobsFailed != 0 {
		t.Errorf("done/failed = %d/%d, want %d/0", m.Server.JobsDone, m.Server.JobsFailed, len(submissions))
	}
	if m.Server.JobsQueued != 0 || m.Server.JobsRunning != 0 {
		t.Errorf("queued/running = %d/%d, want 0/0", m.Server.JobsQueued, m.Server.JobsRunning)
	}
	if m.Server.PipelineRuns != distinctKeys {
		t.Errorf("pipeline_runs = %d, want %d (duplicates must share executions)",
			m.Server.PipelineRuns, distinctKeys)
	}
	if got := m.Server.CacheHits + m.Server.JobsCoalesced; got != int64(len(submissions)-distinctKeys) {
		t.Errorf("hits+coalesced = %d, want %d", got, len(submissions)-distinctKeys)
	}
}

// TestListJobs pins the listing endpoint: submission order, no report
// payloads.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	a, _ := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	b, _ := postJob(t, ts, SubmitRequest{Bench: "b08a"})
	awaitJob(t, ts, a.ID)
	awaitJob(t, ts, b.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Jobs) != 2 || doc.Jobs[0].ID != a.ID || doc.Jobs[1].ID != b.ID {
		t.Fatalf("listing: %+v", doc.Jobs)
	}
	for _, j := range doc.Jobs {
		if len(j.Report) != 0 {
			t.Errorf("listing leaked a report for %s", j.ID)
		}
	}
}

// TestCacheLRUEviction pins the eviction policy at the unit level, with the
// body index in step: a lookup by key and a lookup by body sum each refresh
// their entry, eviction drops the entry's sum, and re-pointing an entry at
// another body unindexes the old one.
func TestCacheLRUEviction(t *testing.T) {
	sum := func(body string) bodySum { return sha256.Sum256([]byte(body)) }
	entry := func(key string) cacheEntry {
		return cacheEntry{key: key, origin: "job-" + key, module: "m" + key, report: &storedReport{raw: []byte(strings.ToUpper(key))}, body: sum(key)}
	}
	c := newResultCache(2)
	c.put(entry("a"))
	c.put(entry("b"))
	if _, ok := c.get("a"); !ok { // touch a by key: b becomes LRU
		t.Fatal("a missing")
	}
	c.put(entry("c"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.getBody(sum("b")); ok {
		t.Error("b's body outlived its entry")
	}
	if _, ok := c.getBody(sum("a")); !ok { // touch a by body: c becomes LRU
		t.Fatal("a missing by body")
	}
	c.put(entry("d"))
	if _, ok := c.get("c"); ok {
		t.Error("c should have been evicted")
	}
	if _, ok := c.getBody(sum("c")); ok {
		t.Error("c's body outlived its entry")
	}
	for _, key := range []string{"a", "d"} {
		if e, ok := c.get(key); !ok || !reflect.DeepEqual(e, entry(key)) {
			t.Errorf("%s lost: %+v", key, e)
		}
		if e, ok := c.getBody(sum(key)); !ok || !reflect.DeepEqual(e, entry(key)) {
			t.Errorf("%s lost by body: %+v", key, e)
		}
	}
	c.setBody("a", sum("a respaced"), JobOptions{Workers: 2})
	if _, ok := c.getBody(sum("a")); ok {
		t.Error("a's previous body still indexed")
	}
	if e, ok := c.getBody(sum("a respaced")); !ok || e.key != "a" || e.opts.Workers != 2 {
		t.Errorf("a not reached by its new body: %+v", e)
	}
	c.setBody("b", sum("b"), JobOptions{}) // evicted: nothing to index
	if c.len() != 2 || len(c.byBody) != 2 {
		t.Errorf("len = %d with %d body sums, want 2 and 2", c.len(), len(c.byBody))
	}
	disabled := newResultCache(-1)
	disabled.put(entry("x"))
	if _, ok := disabled.get("x"); ok || disabled.len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

// TestSubmitAfterClose pins shutdown admission: a closed server refuses
// new jobs with 503.
func TestSubmitAfterClose(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.Close()
	_, code := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit after close: status %d, want 503", code)
	}
}

// TestSubmitDirect exercises the library-level Submit entry point, which
// the HTTP layer calls.
func TestSubmitDirect(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()
	job, err := s.Submit(Source{Bench: "b03a"}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done
	s.mu.Lock()
	state, rep := job.State, job.Report
	s.mu.Unlock()
	if state != StateDone || len(rep) == 0 {
		t.Fatalf("job state %q, %d report bytes", state, len(rep))
	}
	if _, err := s.Submit(Source{Bench: "b03a"}, JobOptions{Lint: "bogus"}); err == nil {
		t.Error("bogus lint mode accepted")
	}
}

// TestRunJobGuardedRecoversWorkerPanic drives a panic through runJob's
// bookkeeping — outside executeJob's own pipeline boundary — by handing the
// worker a job with a nil Done channel (close(nil) panics in finishLocked).
// The per-job rescue must fail the job's coalesced waiters, repair the
// counters, and leave the server serving.
func TestRunJobGuardedRecoversWorkerPanic(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()

	waiter := &Job{ID: "job-w", Key: "poison", State: StateQueued, Done: make(chan struct{})}
	job := &Job{ID: "job-p", Key: "poison", State: StateQueued} // Done nil: poisoned
	job.waiters = []*Job{waiter}
	s.mu.Lock()
	s.inflight["poison"] = job
	s.counters.JobsQueued++
	s.mu.Unlock()

	s.runJobGuarded(job)

	select {
	case <-waiter.Done:
	default:
		t.Fatal("waiter's Done channel never closed after the worker panic")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters.WorkerPanics != 1 {
		t.Errorf("worker_panics = %d, want 1", s.counters.WorkerPanics)
	}
	if s.counters.JobsRunning != 0 || s.counters.JobsQueued != 0 {
		t.Errorf("running/queued = %d/%d, want 0/0", s.counters.JobsRunning, s.counters.JobsQueued)
	}
	if _, ok := s.inflight["poison"]; ok {
		t.Error("poisoned job still inflight")
	}
	if waiter.State != StateFailed || !strings.Contains(waiter.Err, "worker panicked") {
		t.Errorf("waiter state %q err %q, want failed/worker panicked", waiter.State, waiter.Err)
	}
}

// TestFailJobAfterPanic covers the repair helper in isolation: counters for
// each pre-panic state, inflight cleanup, and terminal-state idempotence.
func TestFailJobAfterPanic(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()

	running := &Job{ID: "job-r", Key: "kr", State: StateRunning, Done: make(chan struct{})}
	done := &Job{ID: "job-d", Key: "kr", State: StateDone, Done: make(chan struct{})}
	close(done.Done)
	running.waiters = []*Job{done}
	s.mu.Lock()
	s.inflight["kr"] = running
	s.counters.JobsRunning++
	s.mu.Unlock()

	s.failJobAfterPanic(running, guard.NewGroupFailure(guard.AnyGroup, "job", "boom"))

	s.mu.Lock()
	defer s.mu.Unlock()
	if running.State != StateFailed || !strings.Contains(running.Err, "boom") {
		t.Errorf("job state %q err %q", running.State, running.Err)
	}
	select {
	case <-running.Done:
	default:
		t.Error("failed job's Done not closed")
	}
	if done.State != StateDone {
		t.Errorf("already-terminal waiter rewritten to %q", done.State)
	}
	if s.counters.JobsRunning != 0 || s.counters.JobsFailed != 1 || s.counters.WorkerPanics != 1 {
		t.Errorf("running/failed/panics = %d/%d/%d, want 0/1/1",
			s.counters.JobsRunning, s.counters.JobsFailed, s.counters.WorkerPanics)
	}
}

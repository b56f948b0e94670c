package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gatewords"
	"gatewords/internal/guard"
	"gatewords/internal/service/journal"
)

// TestBreakerStateMachine walks the quarantine breaker through its whole
// lifecycle with an injected clock: counting, tripping, TTL refusal,
// half-open probing, probe failure re-tripping, and success closing.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, time.Minute)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	if b.refuse("fp") != nil {
		t.Fatal("fresh fingerprint refused")
	}
	if b.strike("fp", "boom1") {
		t.Fatal("first strike tripped a threshold-2 breaker")
	}
	if b.refuse("fp") != nil {
		t.Fatal("counting (not yet tripped) fingerprint refused")
	}
	if !b.strike("fp", "boom2") {
		t.Fatal("second strike did not trip")
	}
	qs := b.refuse("fp")
	if qs == nil {
		t.Fatal("tripped fingerprint admitted")
	}
	if qs.Failures != 2 || qs.LastError != "boom2" || qs.RetryAfterMS != 60_000 {
		t.Fatalf("422 doc: %+v", qs)
	}
	now = now.Add(30 * time.Second)
	if qs = b.refuse("fp"); qs == nil || qs.RetryAfterMS != 30_000 {
		t.Fatalf("mid-TTL doc: %+v", qs)
	}

	now = now.Add(31 * time.Second) // TTL elapsed: half-open
	if b.refuse("fp") != nil {
		t.Fatal("half-open fingerprint refused its probe")
	}
	b.beginProbe("fp")
	if qs = b.refuse("fp"); qs == nil || qs.RetryAfterMS != 0 {
		t.Fatalf("probe-in-flight duplicate not refused: %+v", qs)
	}
	if !b.strike("fp", "probe failed") {
		t.Fatal("failed probe did not re-trip")
	}
	if qs = b.refuse("fp"); qs == nil || qs.RetryAfterMS != 60_000 || qs.Failures != 3 {
		t.Fatalf("re-tripped doc: %+v", qs)
	}

	now = now.Add(61 * time.Second)
	b.beginProbe("fp")
	b.succeed("fp")
	if b.refuse("fp") != nil || len(b.entries) != 0 {
		t.Fatal("successful probe did not close the breaker")
	}

	// A nil breaker (quarantine disabled) is inert everywhere.
	var off *breaker
	if off.refuse("fp") != nil || off.strike("fp", "x") {
		t.Fatal("nil breaker acted")
	}
	off.beginProbe("fp")
	off.succeed("fp")
}

// TestQuarantineEndToEnd drives a poison input through the live server: two
// injected panics trip the breaker, the next submission gets the structured
// 422, and after the TTL the half-open probe runs clean and closes it.
func TestQuarantineEndToEnd(t *testing.T) {
	guard.Reset()
	t.Cleanup(guard.Reset)
	_, ts := newTestServer(t, Config{
		Workers:            1,
		QuarantineFailures: 2,
		QuarantineTTL:      50 * time.Millisecond,
	})
	guard.PlantN("job:b03a", guard.AnyGroup, 2)

	for i := 0; i < 2; i++ {
		st, code := postJob(t, ts, SubmitRequest{Bench: "b03a"})
		if code != http.StatusAccepted {
			t.Fatalf("poisoned submit %d: status %d", i, code)
		}
		final := awaitJob(t, ts, st.ID)
		if final.Status != StateFailed || !strings.Contains(final.Error, "injected fault") {
			t.Fatalf("poisoned job %d ended %q (%s)", i, final.Status, final.Error)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"b03a"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qs QuarantineStatus
	if err := json.NewDecoder(resp.Body).Decode(&qs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined submit: status %d, want 422", resp.StatusCode)
	}
	if qs.Failures != 2 || qs.Fingerprint == "" || !strings.Contains(qs.LastError, "injected fault") {
		t.Fatalf("422 doc: %+v", qs)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quarantine 422 missing Retry-After")
	}

	time.Sleep(60 * time.Millisecond) // past the TTL: half-open
	st, code := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	if code != http.StatusAccepted {
		t.Fatalf("probe submit: status %d", code)
	}
	final := awaitJob(t, ts, st.ID)
	if final.Status != StateDone {
		t.Fatalf("probe ended %q (%s); the fault budget was spent", final.Status, final.Error)
	}
	// Breaker closed: the next submission is a plain cache hit.
	if _, code = postJob(t, ts, SubmitRequest{Bench: "b03a"}); code != http.StatusOK {
		t.Fatalf("post-recovery submit: status %d, want 200", code)
	}

	m, _ := getMetrics(t, ts)
	if m.Server.QuarantineTrips != 1 || m.Server.QuarantineRejections != 1 {
		t.Errorf("trips/rejections = %d/%d, want 1/1",
			m.Server.QuarantineTrips, m.Server.QuarantineRejections)
	}
}

// TestDeadlineAdmission pins deadline-aware queueing: once the latency EWMA
// says a job's deadline cannot be met, the submission is refused with 429
// and a Retry-After estimate, while deadline-free jobs still flow.
func TestDeadlineAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.mu.Lock()
	s.adm.ewmaMS = 60_000 // pretend jobs take a minute
	s.mu.Unlock()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"b03a","options":{"timeout_ms":10}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("infeasible-deadline submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	st, code := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	if code != http.StatusAccepted {
		t.Fatalf("deadline-free submit: status %d", code)
	}
	awaitJob(t, ts, st.ID)

	m, _ := getMetrics(t, ts)
	if m.Server.JobsShed != 1 {
		t.Errorf("jobs_shed = %d, want 1", m.Server.JobsShed)
	}
	if m.Server.JobLatencyEWMAMS <= 0 {
		t.Errorf("job_latency_ewma_ms = %v, want > 0 after an execution", m.Server.JobLatencyEWMAMS)
	}
}

func gatesOf(t *testing.T, name string) int {
	t.Helper()
	d, err := gatewords.GenerateBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return d.Stats().Gates
}

// TestHeavyJobShedding pins cost-based shedding: with the queue half full,
// a design above ShedGates is refused while lighter ones are admitted, and
// the shed never corrupts the jobs already accepted.
func TestHeavyJobShedding(t *testing.T) {
	light, heavy := gatesOf(t, "b04a"), gatesOf(t, "b14a")
	if g := gatesOf(t, "b05a"); g > light {
		light = g // threshold must admit every "light" bench used below
	}
	if heavy <= light {
		t.Fatalf("bench sizes inverted: light=%d b14a=%d", light, heavy)
	}
	s := mustNew(t, Config{Workers: 1, QueueDepth: 2, ShedGates: light})
	s.testJobGate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	blocker, _ := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	queued, code := postJob(t, ts, SubmitRequest{Bench: "b04a"}) // backlog now half full
	if code != http.StatusAccepted {
		t.Fatalf("light submit: status %d", code)
	}
	_, code = postJob(t, ts, SubmitRequest{Bench: "b14a"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("heavy submit under load: status %d, want 429", code)
	}
	// Light jobs keep flowing until the queue itself fills.
	light2, code := postJob(t, ts, SubmitRequest{Bench: "b05a"})
	if code != http.StatusAccepted {
		t.Fatalf("light submit under load: status %d", code)
	}

	s.testJobGate <- struct{}{}
	s.testJobGate <- struct{}{}
	s.testJobGate <- struct{}{}
	for _, st := range []JobStatus{blocker, queued, light2} {
		if final := awaitJob(t, ts, st.ID); final.Status != StateDone {
			t.Fatalf("accepted job %s corrupted by the shed: %q (%s)", st.ID, final.Status, final.Error)
		}
	}
	m, _ := getMetrics(t, ts)
	if m.Server.JobsShed != 1 {
		t.Errorf("jobs_shed = %d, want 1", m.Server.JobsShed)
	}
	s.Close()
}

// TestDraining pins the shutdown-visibility contract: after StartDraining,
// /healthz reports 503 {"state":"draining"} and submissions are refused,
// while polls for existing jobs keep being served.
func TestDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	st, _ := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	awaitJob(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	s.StartDraining()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health["state"] != "draining" {
		t.Fatalf("healthz during drain: %d %v", resp.StatusCode, health)
	}
	if _, code := postJob(t, ts, SubmitRequest{Bench: "b04a"}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", code)
	}
	if got := getJob(t, ts, st.ID); got.Status != StateDone {
		t.Fatalf("poll during drain lost the job: %+v", got)
	}
}

// TestBodyTooLarge pins the oversized-submission contract: a structured 413
// naming the limit, not a connection reset or a generic 400. That holds
// also for a valid request followed by trailing bytes past the limit, which
// the handler reads whole before decoding.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxRequestBytes: 256})
	for name, body := range map[string]string{
		"invalid":  `{"verilog":"` + strings.Repeat("x", 1024) + `"}`,
		"trailing": `{"bench":"b03a"}` + strings.Repeat(" ", 1024),
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Error      string `json:"error"`
			LimitBytes int64  `json:"limit_bytes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || doc.LimitBytes != 256 {
			t.Errorf("%s oversized submit: status %d doc %+v", name, resp.StatusCode, doc)
		}
	}
}

// TestStalledBodyHoldsLittle pins what a slow client can pin: a request that
// declares a body as long as the limit, sends a few bytes and stalls has had
// a buffer sized by maxPresize reserved for it, not one sized by its header.
func TestStalledBodyHoldsLittle(t *testing.T) {
	const limit = 32 << 20
	h := mustNew(t, Config{Workers: 1, MaxRequestBytes: limit}).Handler()
	pr, pw := io.Pipe()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", pr)
	req.ContentLength = limit
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	var before, stalled runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	// A pipe write returns once the handler has read every byte of it.
	if _, err := io.WriteString(pw, `{"bench":`); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&stalled)
	pw.CloseWithError(io.ErrUnexpectedEOF)
	<-done
	if rec.Code != http.StatusBadRequest {
		t.Errorf("truncated body: status %d, want 400", rec.Code)
	}
	if grew := stalled.TotalAlloc - before.TotalAlloc; grew > limit/8 {
		t.Errorf("a stalled request declaring %d bytes had %d bytes allocated for it", limit, grew)
	}
}

// createJournal opens a new journal at path for a test to write.
func createJournal(t *testing.T, path string) *journal.Journal {
	t.Helper()
	j, _, err := journal.Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// appendRecord journals one record, failing the test on error.
func appendRecord(t *testing.T, j *journal.Journal, job, event string, data any) {
	t.Helper()
	if err := j.Append(job, event, data); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplay hand-writes a crashed daemon's journal and pins every
// replay outcome: running jobs fail honestly, done jobs serve byte-identical
// reports (inline and via primary reference), queued jobs resume under
// -resume and complete, the cache re-seeds, and the ID sequence continues.
func TestJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	d, err := gatewords.GenerateBenchmark("b03a")
	if err != nil {
		t.Fatal(err)
	}
	liveKey := requestKey(Source{Bench: "b03a"}, JobOptions{})
	fakeReport := json.RawMessage(`{"module":"fake","words":[]}`)

	j := createJournal(t, path)
	// job-1: crashed mid-run. job-2: done with inline bytes. job-3: cache hit
	// referencing job-2's bytes. job-4: still queued, with a resumable source.
	appendRecord(t, j, "job-000001", "accepted", acceptedData{Key: "k1", Fingerprint: "fp1", Module: "m1"})
	appendRecord(t, j, "job-000001", "running", nil)
	appendRecord(t, j, "job-000002", "accepted", acceptedData{Key: "k2", Fingerprint: "fp2", Module: "fake"})
	appendRecord(t, j, "job-000002", "done", doneData{Report: fakeReport})
	appendRecord(t, j, "job-000003", "accepted", acceptedData{Key: "k2", Fingerprint: "fp2", Module: "fake", Cached: true})
	appendRecord(t, j, "job-000003", "done", doneData{Primary: "job-000002"})
	appendRecord(t, j, "job-000004", "accepted", acceptedData{
		Key: liveKey, Fingerprint: d.Fingerprint(), Module: "b03a", Bench: "b03a",
	})
	j.Close()

	s, ts := newTestServer(t, Config{Workers: 1, JournalPath: path, Resume: true})
	rec := s.Recovery()
	if !rec.Journaled || rec.Restored != 2 || rec.Resumed != 1 || rec.Interrupted != 1 || rec.TornRecords != 0 {
		t.Fatalf("recovery report: %+v", rec)
	}

	interrupted := getJob(t, ts, "job-000001")
	if interrupted.Status != StateFailed || !strings.Contains(interrupted.Error, "interrupted") {
		t.Fatalf("mid-run job not failed honestly: %+v", interrupted)
	}
	// Byte-identity is a property of the stored report (the HTTP encoder
	// re-indents nested JSON uniformly, so served duplicates stay equal).
	for _, id := range []string{"job-000002", "job-000003"} {
		job, ok := s.Lookup(id)
		if !ok {
			t.Fatalf("%s missing after replay", id)
		}
		s.mu.Lock()
		state, report := job.State, job.Report
		s.mu.Unlock()
		if state != StateDone || !bytes.Equal(report, fakeReport) {
			t.Fatalf("%s not byte-identical after replay: %q %q", id, state, report)
		}
	}
	if a, b := getJob(t, ts, "job-000002"), getJob(t, ts, "job-000003"); !bytes.Equal(a.Report, b.Report) {
		t.Fatal("primary-referenced replay served different bytes than its primary")
	}
	resumed := awaitJob(t, ts, "job-000004")
	if resumed.Status != StateDone || len(resumed.Report) == 0 {
		t.Fatalf("resumed job: %+v", resumed)
	}

	// The resumed job's completion re-seeded the cache under the live key.
	hit, code := postJob(t, ts, SubmitRequest{Bench: "b03a"})
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("post-resume duplicate missed the cache: status %d %+v", code, hit)
	}
	if !strings.HasPrefix(hit.ID, "job-00000") || hit.ID <= "job-000004" {
		t.Fatalf("ID sequence did not continue past the journal: %s", hit.ID)
	}
	m, _ := getMetrics(t, ts)
	if m.Server.JournalReplays != 3 {
		t.Errorf("journal_replays = %d, want 3", m.Server.JournalReplays)
	}
}

// TestJournalReplayWrongTypedData replays CRC-valid records whose data
// holds a field of the wrong type, as a journal from another version could.
// Each is a version skew, not a tear: an accepted record keeps its job with
// the fields that decoded, a done record is ignored, and a failed record
// keeps its job failed. A record whose job field has the wrong type is not
// a record at all: it ends the replay as a torn tail.
func TestJournalReplayWrongTypedData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	report := json.RawMessage(`{"module":"fake","words":[]}`)
	j := createJournal(t, path)
	// job-1: accepted with a wrong-typed option, never run.
	appendRecord(t, j, "job-000001", "accepted", json.RawMessage(`{"key":"k1","module":"m1","opts":{"depth":"three"}}`))
	// job-2: ran; its done record has a wrong-typed field and its only
	// other done record has no data.
	appendRecord(t, j, "job-000002", "accepted", acceptedData{Key: "k2", Module: "m2"})
	appendRecord(t, j, "job-000002", "running", nil)
	appendRecord(t, j, "job-000002", "done", json.RawMessage(`{"report":{"module":"m2"},"interrupted":"no"}`))
	appendRecord(t, j, "job-000002", "done", nil)
	// job-3: failed with a wrong-typed message.
	appendRecord(t, j, "job-000003", "accepted", acceptedData{Key: "k3", Module: "m3"})
	appendRecord(t, j, "job-000003", "failed", json.RawMessage(`{"error":42}`))
	// job-4: done with its report, and an accepted field of the wrong type
	// that a done record does not read.
	appendRecord(t, j, "job-000004", "accepted", acceptedData{Key: "k4", Module: "fake"})
	appendRecord(t, j, "job-000004", "done", json.RawMessage(`{"report":`+string(report)+`,"key":7}`))
	// job-5: its done record's data is null: done, with no report to serve.
	appendRecord(t, j, "job-000005", "accepted", acceptedData{Key: "k5", Module: "m5"})
	appendRecord(t, j, "job-000005", "done", json.RawMessage(`null`))
	j.Close()
	// job-6: a checksummed payload whose job field has the wrong type, then
	// a valid record that the tear hides.
	bad := []byte(`{"job":6,"event":"accepted","data":{"key":"k6"}}`)
	tail := binary.LittleEndian.AppendUint32(nil, uint32(len(bad)))
	tail = binary.LittleEndian.AppendUint32(tail, crc32.ChecksumIEEE(bad))
	tail = append(tail, bad...)
	tail = append(tail, journal.Encode(journal.Record{Job: "job-000006", Event: "accepted", Data: json.RawMessage(`{"key":"k6"}`)})...)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, ts := newTestServer(t, Config{Workers: 1, JournalPath: path})
	if rec := s.Recovery(); rec.Restored != 2 || rec.Interrupted != 3 || rec.TornRecords != 1 {
		t.Fatalf("recovery report: %+v", rec)
	}
	for _, want := range []struct {
		id, status, module, err string
	}{
		{"job-000001", StateFailed, "m1", "interrupted: daemon restarted while queued"},
		{"job-000002", StateFailed, "m2", "interrupted: daemon restarted mid-run"},
		{"job-000003", StateFailed, "m3", ""},
		{"job-000004", StateDone, "fake", ""},
		{"job-000005", StateFailed, "m5", "journal incomplete: report bytes lost with the primary's record"},
	} {
		got := getJob(t, ts, want.id)
		if got.Status != want.status || got.Module != want.module || got.Error != want.err {
			t.Errorf("%s: %q %q %q, want %q %q %q", want.id, got.Status, got.Module, got.Error, want.status, want.module, want.err)
		}
	}
	if job, ok := s.Lookup("job-000004"); !ok || !bytes.Equal(job.Report, report) {
		t.Error("job-000004 lost its report bytes")
	}
	if _, ok := s.Lookup("job-000006"); ok {
		t.Error("a record after the torn tail was replayed")
	}
}

// TestDecodeRecordMatchesTwoPassDecode holds replay's single-pass decode to
// the two-pass decode it replaced: the payload as a journal.Record, then its
// data as the event's type (best effort for accepted and failed records,
// all or nothing for done records). Each payload must give the same job,
// event and what replay reads of the data, or be refused by both.
func TestDecodeRecordMatchesTwoPassDecode(t *testing.T) {
	type outcome struct {
		job, event string
		data       any // what replay reads of the event's data
	}
	twoPass := func(payload []byte) (outcome, error) {
		var raw journal.Record
		if err := json.Unmarshal(payload, &raw); err != nil {
			return outcome{}, err
		}
		o := outcome{job: raw.Job, event: raw.Event}
		switch raw.Event {
		case "accepted":
			var a acceptedData
			_ = json.Unmarshal(raw.Data, &a)
			o.data = a
		case "done":
			var d doneData
			if json.Unmarshal(raw.Data, &d) == nil {
				o.data = d
			}
		case "failed":
			var f failedData
			_ = json.Unmarshal(raw.Data, &f)
			o.data = f.Error
		}
		return o, nil
	}
	onePass := func(payload []byte) (outcome, error) {
		rec, err := decodeRecord(payload)
		o := outcome{job: rec.Job, event: rec.Event}
		switch rec.Event {
		case "accepted":
			o.data = rec.Data.acceptedData
		case "done":
			if rec.doneOK {
				o.data = rec.Data.doneData
			}
		case "failed":
			o.data = rec.Data.Error
		}
		return o, err
	}
	src := strings.Repeat("module m (a, y); input a; output y; BUF U1 (y, a); endmodule\n", 4)
	for _, payload := range []string{
		`{"job":"job-000001","event":"accepted","data":{"key":"k","module":"m","opts":{"depth":2,"workers":3},"verilog":"` + src + `"}}`,
		`{"job":"job-000001","event":"accepted","data":{"key":"k","opts":{"depth":"2"},"module":"m"}}`,
		`{"job":"job-000001","event":"accepted","data":{"key":"k","report":17}}`,
		`{"job":"job-000001","event":"accepted","data":"text"}`,
		`{"job":"job-000001","event":"accepted","data":null}`,
		`{"job":"job-000001","event":"accepted"}`,
		`{"job":"job-000001","event":"accepted","data":{"cached":true,"cache_from":"job-000000"},"extra":[1,2]}`,
		`{"job":"job-000001","event":"running"}`,
		`{"job":"job-000001","event":"running","data":{"key":5}}`,
		`{"job":"job-000001","event":"done","data":{"report":{"module":"m","words":[]}}}`,
		`{"job":"job-000001","event":"done","data":{"primary":"job-000000","interrupted":true}}`,
		`{"job":"job-000001","event":"done","data":{"report":{"module":"m"},"interrupted":"no"}}`,
		`{"job":"job-000001","event":"done","data":{"primary":"job-000000","key":7}}`,
		`{"job":"job-000001","event":"done","data":{"report":null}}`,
		`{"job":"job-000001","event":"done","data":{}}`,
		`{"job":"job-000001","event":"done","data":null}`,
		`{"job":"job-000001","event":"done","data":[]}`,
		`{"job":"job-000001","event":"done"}`,
		`{"job":"job-000001","event":"failed","data":{"error":"boom"}}`,
		`{"job":"job-000001","event":"failed","data":{"error":42}}`,
		`{"job":"job-000001","event":"failed","data":{"error":"boom","opts":1}}`,
		`{"job":"job-000001","event":"failed"}`,
		`{"Job":"job-000001","EVENT":"failed","Data":{"Error":"boom"}}`,
		`{"job":1,"event":"accepted","data":{"key":"k"}}`,
		`{"job":"job-000001","event":["done"]}`,
		`{"job":"job-000001","event":"done","data":{"report":1}`,
		`[1,2,3]`,
		`"job"`,
		`null`,
		`{}`,
	} {
		want, wantErr := twoPass([]byte(payload))
		got, err := onePass([]byte(payload))
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: error %v, want %v", payload, err, wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n decoded %+v\n want    %+v", payload, got, want)
		}
	}
}

// TestJournalSurvivesRestartChain pins the crash-restart-crash-restart
// sequence the chaos harness automates: a second replay must serve exactly
// what the first daemon served, byte for byte, including records the first
// replay itself appended.
func TestJournalSurvivesRestartChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")

	s1, ts1 := newTestServer(t, Config{Workers: 1, JournalPath: path})
	st, _ := postJob(t, ts1, SubmitRequest{Bench: "b03a"})
	first := awaitJob(t, ts1, st.ID)
	if first.Status != StateDone {
		t.Fatalf("first life: %+v", first)
	}
	// A cache hit journals one sourceless record that names the primary.
	hit, code := postJob(t, ts1, SubmitRequest{Bench: "b03a"})
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("first life duplicate: status %d, %+v", code, hit)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 1, JournalPath: path})
	if rec := s2.Recovery(); rec.Restored != 2 {
		t.Fatalf("second life recovery: %+v", rec)
	}
	for _, id := range []string{st.ID, hit.ID} {
		replayed := getJob(t, ts2, id)
		if replayed.Status != StateDone || !bytes.Equal(replayed.Report, first.Report) {
			t.Fatalf("second life does not serve the first life's bytes for %s", id)
		}
	}
	if again, code := postJob(t, ts2, SubmitRequest{Bench: "b03a"}); code != http.StatusOK || !again.Cached {
		t.Fatalf("second life duplicate missed the re-seeded cache: status %d, %+v", code, again)
	}
	ts2.Close()
	s2.Close()

	s3, _ := newTestServer(t, Config{Workers: 1, JournalPath: path})
	if rec := s3.Recovery(); rec.Restored != 3 || rec.Interrupted != 0 || rec.TornRecords != 0 {
		t.Fatalf("third life recovery: %+v", rec)
	}
}

// TestJournalQueuedWithoutResume pins the no-resume default: a journal-queued
// job is failed honestly, not silently dropped and not re-run.
func TestJournalQueuedWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j := createJournal(t, path)
	appendRecord(t, j, "job-000001", "accepted", acceptedData{Key: "k", Module: "b03a", Bench: "b03a"})
	j.Close()

	s, ts := newTestServer(t, Config{Workers: 1, JournalPath: path})
	if rec := s.Recovery(); rec.Interrupted != 1 || rec.Resumed != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	st := getJob(t, ts, "job-000001")
	if st.Status != StateFailed || !strings.Contains(st.Error, "interrupted") {
		t.Fatalf("queued job without -resume: %+v", st)
	}
}

package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// SubmitRequest is the POST /v1/jobs body: exactly one of Verilog (inline
// structural Verilog; set Top for hierarchical sources) or Bench (a named
// internal/bench profile, see gatewords.BenchmarkNames).
type SubmitRequest struct {
	Verilog string     `json:"verilog,omitempty"`
	Top     string     `json:"top,omitempty"`
	Bench   string     `json:"bench,omitempty"`
	Options JobOptions `json:"options"`
}

// JobStatus is the wire form of a job, served by the submit and poll
// endpoints. Report is attached once the job is done.
type JobStatus struct {
	ID            string          `json:"id"`
	Status        string          `json:"status"`
	Module        string          `json:"module"`
	Key           string          `json:"key"`
	Cached        bool            `json:"cached,omitempty"`
	CoalescedWith string          `json:"coalesced_with,omitempty"`
	Interrupted   bool            `json:"interrupted,omitempty"`
	Error         string          `json:"error,omitempty"`
	Report        json.RawMessage `json:"report,omitempty"`
}

// statusLocked renders a job under the server mutex: its status envelope
// and, once the job is done, the stored report that writeStatus attaches.
func statusLocked(j *Job) (JobStatus, *storedReport) {
	st := JobStatus{
		ID:            j.ID,
		Status:        j.State,
		Module:        j.Module,
		Key:           j.Key,
		Cached:        j.Cached,
		CoalescedWith: j.CoalescedWith,
		Interrupted:   j.Interrupted,
		Error:         j.Err,
	}
	if j.State == StateDone {
		return st, j.stored
	}
	return st, nil
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs          submit a netlist; 202 (accepted) or 200 (cache hit)
//	GET  /v1/jobs          list jobs in submission order (no reports)
//	GET  /v1/jobs/{id}     poll one job; report attached when done
//	GET  /metrics          server counters + merged pipeline observability
//	GET  /healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503 with
// {"state":"draining"} from the moment shutdown begins until the process
// exits, so load balancers stop routing new work while in-flight jobs drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"state": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "state": "ready"})
}

// handleSubmit reads the body whole and hashes it. A body whose exact bytes
// this server has decoded before, to the key of a cached report, is
// answered from the cache without a decode (answerBodyLocked); any other
// body is decoded and submitted, and once admitted its sum is recorded for
// the cache entry its request reaches.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	buf, err := s.readBody(w, r)
	defer s.releaseBody(buf)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error":       fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				"limit_bytes": tooBig.Limit,
			})
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	body := buf.Bytes()
	sum := bodySum(sha256.Sum256(body))
	s.mu.Lock()
	if job := s.answerBodyLocked(sum); job != nil {
		st, rep := statusLocked(job)
		s.mu.Unlock()
		writeStatus(w, http.StatusOK, st, rep)
		return
	}
	s.mu.Unlock()

	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	job, err := s.Submit(Source{Bench: req.Bench, Verilog: req.Verilog, Top: req.Top}, req.Options)
	if err != nil {
		var se *submitError
		if errors.As(err, &se) {
			if se.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
			}
			if se.doc != nil {
				writeJSON(w, se.status, se.doc)
			} else {
				writeError(w, se.status, "%s", se.msg)
			}
		} else {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.mu.Lock()
	s.noteBodyLocked(job, sum)
	st, rep := statusLocked(job)
	s.mu.Unlock()
	code := http.StatusAccepted
	if st.Cached {
		code = http.StatusOK
	}
	writeStatus(w, code, st, rep)
}

// maxPresize caps the buffer that a declared Content-Length reserves before
// any body byte arrives, so a client that declares a large body and then
// stalls pins at most this much; a longer body grows the buffer as it comes.
const maxPresize = 1 << 20

// readBody reads a request body whole into a buffer from the server's
// pool, failing with *http.MaxBytesError once it passes the body limit. A
// declared length up to maxPresize sizes the buffer, with bytes.MinRead to
// spare so reading to EOF does not grow it; a pooled buffer too small for
// that is dropped for one allocated at that size, never grown, so the cap
// holds. The handler hands the buffer back with releaseBody when it returns.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	limit := s.cfg.MaxRequestBytes
	var size int64
	if n := r.ContentLength; n > 0 {
		size = min(n, limit, maxPresize)
	}
	buf, _ := s.bodies.Get().(*bytes.Buffer)
	if buf == nil || int64(buf.Cap()) < size+bytes.MinRead {
		buf = bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	}
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf, err
}

// releaseBody returns a body buffer to the pool, unless a body longer than
// maxPresize grew it past what a declared length may reserve.
func (s *Server) releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPresize+bytes.MinRead {
		s.bodies.Put(buf)
	}
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	s.mu.Lock()
	st, rep := statusLocked(job)
	s.mu.Unlock()
	writeStatus(w, http.StatusOK, st, rep)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		st, _ := statusLocked(s.jobs[id])
		list = append(list, st)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

// MetricsDoc is the GET /metrics payload. Pipeline is the deterministic
// obs-recorder rendering (arrays in enum order), merged over every
// completed job's per-run Observer.
type MetricsDoc struct {
	Server   Counters        `json:"server"`
	Pipeline json.RawMessage `json:"pipeline"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	counters, observer := s.Metrics()
	pipeline, err := observer.MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rendering metrics: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, MetricsDoc{Server: counters, Pipeline: pipeline})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// writeStatus writes the document writeJSON writes for st with rep's raw
// bytes as its report, without encoding those bytes again: it encodes the
// envelope alone, drops its closing "\n}\n", and appends the report's
// response form. A status without a report, or with one that does not
// render, goes through writeJSON.
func writeStatus(w http.ResponseWriter, code int, st JobStatus, rep *storedReport) {
	if rep == nil {
		writeJSON(w, code, st)
		return
	}
	form := rep.responseForm()
	if form == nil {
		st.Report = rep.raw
		writeJSON(w, code, st)
		return
	}
	var env bytes.Buffer
	enc := json.NewEncoder(&env)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck // strings and bools always encode
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The response is committed: a failed write has nowhere to go.
	w.Write(bytes.TrimSuffix(env.Bytes(), []byte("\n}\n")))
	io.WriteString(w, ",\n  \"report\": ")
	w.Write(form)
	io.WriteString(w, "\n}\n")
}

// storedReport holds one report's bytes, as a run serialized them or the
// journal restored them, and their response form: the bytes as writeJSON
// embeds a json.RawMessage under "report" in a job status, compacted with
// HTML escaping and indented one level deep. The cache entry and every job
// that serves the same bytes (the primary, its coalesced duplicates, each
// hit, a restored job and the entry re-seeded from it) share one
// storedReport, so the form is rendered once, on the first response that
// needs it, outside the server mutex.
type storedReport struct {
	raw  []byte
	once sync.Once
	form []byte // nil until rendered, and when raw does not render
}

// responseForm returns the report's response form, rendering it on the
// first call, or nil when raw is not JSON, which writeJSON cannot encode.
func (r *storedReport) responseForm() []byte {
	r.once.Do(func() {
		// Marshal compacts a RawMessage with HTML escaping, as the
		// Encoder does; the error is the nil form writeStatus checks.
		r.form, _ = json.MarshalIndent(json.RawMessage(r.raw), "  ", "  ")
	})
	return r.form
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Package service turns word identification into a long-running daemon: an
// HTTP/JSON job server over the gatewords facade, composing the pieces the
// pipeline already provides — per-job context deadlines (Options.Context),
// per-group failure domains and resource budgets (internal/guard), and
// per-run observability (internal/obs) — behind a bounded worker pool.
//
// The serving model is jobs, not requests: POST /v1/jobs accepts a netlist
// (inline Verilog or a named internal/bench profile) plus per-job options
// and returns a job ID immediately; GET /v1/jobs/{id} polls the job until
// the full report document is attached. Identification cost is unbounded in
// the input, so holding an HTTP connection open for it would be the wrong
// contract under heavy traffic.
//
// Repeat submissions are the common case a service sees, so results are
// content-addressed: the cache key is a SHA-256 of the exact request (bench
// name, top and Verilog text, plus the normalized job options), looked up
// before the source is parsed. The POST handler first hashes the raw body:
// once a body has decoded to the key of a cached report, the same bytes are
// answered from that entry without decoding their JSON, as equal bytes
// decode to the same request. So an exact duplicate of a completed job is
// served byte-identical report JSON at the cost of one hash of its body; a
// duplicate in another spacing or field order pays a decode and a hash of
// the request. A duplicate of a job still queued or running coalesces onto
// it and shares its one pipeline execution. Because the key covers the
// exact text, a hit never serves a report that a fresh run of its own
// request would not give (§2.2 grouping reads declaration order, so a
// reordered file is a different request). GET /metrics serves the server
// counters plus the merged observability recorders of every completed job.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gatewords"
	"gatewords/internal/guard"
	"gatewords/internal/service/journal"
)

// Config sizes the server. The zero value is serviceable: GOMAXPROCS
// workers, a 64-job queue, a 256-entry result cache, no default deadline.
type Config struct {
	// Workers is the job worker-pool size (<= 0 selects GOMAXPROCS). It
	// bounds concurrent pipeline executions; queued jobs wait.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (<= 0 selects 64).
	// A submission that finds the queue full is rejected with 503 rather
	// than admitted into an unbounded backlog.
	QueueDepth int
	// CacheEntries caps the content-addressed result cache (0 selects 256,
	// negative disables caching).
	CacheEntries int
	// DefaultTimeout applies to jobs that set no timeout of their own
	// (0 = none): the per-job context deadline, honored cooperatively by
	// the pipeline, which reports a partial result with interrupted set.
	DefaultTimeout time.Duration
	// MaxTimeout caps per-job timeouts (0 = uncapped): a job asking for
	// more is clamped, and a job asking for nothing gets MaxTimeout when
	// no DefaultTimeout applies.
	MaxTimeout time.Duration
	// MaxRequestBytes bounds a submission body (<= 0 selects 32 MiB).
	MaxRequestBytes int64
	// ShedGates is the cost-based load-shedding threshold: once the queue is
	// at least half full, fresh submissions whose designs exceed this many
	// gates are refused with 429 (0 disables shedding).
	ShedGates int
	// QuarantineFailures trips the poison-input breaker: that many
	// consecutive failed executions (panic or expired deadline) of one
	// fingerprint quarantine it (0 selects 3, negative disables quarantine).
	QuarantineFailures int
	// QuarantineTTL is how long a tripped fingerprint stays refused before
	// the breaker goes half-open and admits one probe (<= 0 selects 1m).
	QuarantineTTL time.Duration
	// JournalPath, when set, appends every job lifecycle transition to a
	// checksummed write-ahead log at that path and replays it at startup, so
	// a crashed daemon comes back serving its terminal jobs byte-identically
	// and reporting interrupted ones honestly.
	JournalPath string
	// Resume re-enqueues journal-queued jobs at startup instead of marking
	// them interrupted. Only meaningful with JournalPath.
	Resume bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 32 << 20
	}
	if c.QuarantineFailures == 0 {
		c.QuarantineFailures = 3
	}
	if c.QuarantineTTL <= 0 {
		c.QuarantineTTL = time.Minute
	}
	return c
}

// Job states, as served in status documents.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobOptions is the wire form of per-job pipeline options. Field names
// mirror gatewords.Options; zero values select the paper defaults there.
// Workers sets the job's intra-run group parallelism and is excluded from
// the cache key (parallel and sequential runs produce identical output, an
// invariant the pipeline pins under test).
type JobOptions struct {
	Depth                int     `json:"depth,omitempty"`
	MaxAssign            int     `json:"max_assign,omitempty"`
	Theta                float64 `json:"theta,omitempty"`
	DisablePartialGroups bool    `json:"disable_partial_groups,omitempty"`
	DFFInputsOnly        bool    `json:"dff_inputs_only,omitempty"`
	Workers              int     `json:"workers,omitempty"`
	// Lint is "", "off", "lenient", or "strict" (gatewords.LintMode).
	Lint            string `json:"lint,omitempty"`
	VerifyReduction bool   `json:"verify_reduction,omitempty"`
	// TimeoutMS bounds the job's wall time; expiry yields a partial report
	// with interrupted set (which is never cached). Normalized at submission
	// against Config.DefaultTimeout / MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludeAll keeps 1-bit words in the report; Evaluate scores against
	// the design's golden reference words.
	IncludeAll bool `json:"include_all,omitempty"`
	Evaluate   bool `json:"evaluate,omitempty"`
	FailFast   bool `json:"fail_fast,omitempty"`
	// Budgets (see gatewords.Budgets); 0 = unlimited.
	MaxConeGates      int `json:"max_cone_gates,omitempty"`
	MaxSubgroupPairs  int `json:"max_subgroup_pairs,omitempty"`
	MaxTrialsPerGroup int `json:"max_trials_per_group,omitempty"`
}

func (o JobOptions) lintMode() (gatewords.LintMode, error) {
	switch o.Lint {
	case "", "off":
		return gatewords.LintOff, nil
	case "lenient":
		return gatewords.LintLenient, nil
	case "strict":
		return gatewords.LintStrict, nil
	}
	return gatewords.LintOff, fmt.Errorf("unknown lint mode %q (want off, lenient, or strict)", o.Lint)
}

// facadeOptions maps the wire options onto gatewords.Options for one run.
func (o JobOptions) facadeOptions(ctx context.Context, observer *gatewords.Observer) (gatewords.Options, error) {
	lint, err := o.lintMode()
	if err != nil {
		return gatewords.Options{}, err
	}
	return gatewords.Options{
		Depth:                o.Depth,
		MaxAssign:            o.MaxAssign,
		Theta:                o.Theta,
		DisablePartialGroups: o.DisablePartialGroups,
		DFFInputsOnly:        o.DFFInputsOnly,
		Workers:              o.Workers,
		Lint:                 lint,
		VerifyReduction:      o.VerifyReduction,
		Context:              ctx,
		Observer:             observer,
		Budgets: gatewords.Budgets{
			MaxConeGates:      o.MaxConeGates,
			MaxSubgroupPairs:  o.MaxSubgroupPairs,
			MaxTrialsPerGroup: o.MaxTrialsPerGroup,
		},
		FailFast: o.FailFast,
	}, nil
}

// requestKey is the result-cache key of one submission: a SHA-256 over the
// exact request, as 64 hex digits. It hashes the bench name, top and
// Verilog text, each length-prefixed, then the canonical JSON encoding of
// the normalized options (struct field order is fixed): Workers is zeroed,
// as it never changes the output, and TimeoutMS has already been resolved
// to the effective deadline. The key addresses report bytes served to other
// clients, hence a collision-resistant hash. The text goes through a small
// buffer, so hashing a submission does not copy its whole source.
func requestKey(src Source, o JobOptions) string {
	o.Workers = 0
	enc, _ := json.Marshal(o) // struct of scalars; cannot fail
	h := sha256.New()
	buf := make([]byte, 4096)
	for _, field := range []string{src.Bench, src.Top, src.Verilog} {
		h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(len(field))))
		for len(field) > 0 {
			n := copy(buf, field)
			h.Write(buf[:n])
			field = field[n:]
		}
	}
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// Job is one identification submission. All mutable fields are guarded by
// the Server's mutex; Done is closed exactly once when the job reaches a
// terminal state.
type Job struct {
	ID string
	// Key is the result-cache key of the job's exact request (requestKey).
	Key string
	// Fingerprint is the design's canonical netlist fingerprint — the
	// quarantine breaker's key. Cache hits carry none: nothing was parsed.
	Fingerprint string
	// Module is the design's module name (the bench profile name for bench
	// submissions).
	Module string
	State  string
	// Cached marks a job served from the result cache without execution.
	Cached bool
	// CoalescedWith names the in-flight job this duplicate submission
	// attached to ("" for primaries).
	CoalescedWith string
	// Interrupted mirrors the report's interrupted flag (deadline expiry).
	Interrupted bool
	// Err is the failure message for StateFailed jobs.
	Err string
	// Report is the serialized report.Document for StateDone jobs.
	Report []byte
	// stored holds Report and its response form for StateDone jobs.
	stored *storedReport
	// Done is closed when the job reaches done or failed.
	Done chan struct{}

	opts    JobOptions
	timeout time.Duration
	design  *gatewords.Design // released once the job is terminal
	waiters []*Job            // coalesced duplicates completed alongside
	body    bodySum           // the POST body of a primary, for its cache entry
}

// Counters are the server-level metrics, served under "server" in /metrics.
// Queued and Running are current levels; the rest accumulate monotonically.
type Counters struct {
	// JobsAccepted counts every admitted submission, including cache hits
	// and coalesced duplicates; JobsRejected counts queue-full refusals.
	JobsAccepted int64 `json:"jobs_accepted"`
	JobsRejected int64 `json:"jobs_rejected"`
	JobsQueued   int64 `json:"jobs_queued"`
	JobsRunning  int64 `json:"jobs_running"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	// JobsCoalesced counts duplicates that attached to an in-flight job and
	// shared its single execution.
	JobsCoalesced int64 `json:"jobs_coalesced"`
	// PipelineRuns counts actual identification executions — the number the
	// cache and coalescing exist to keep below JobsAccepted.
	PipelineRuns int64 `json:"pipeline_runs"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int64 `json:"cache_entries"`
	// WorkerPanics counts panics recovered by the worker-pool boundaries —
	// escapes from runJob's bookkeeping, which executeJob's own pipeline
	// boundary does not cover. Each one failed a job but kept its worker.
	WorkerPanics int64 `json:"worker_panics"`
	// JobsShed counts submissions refused by admission control: deadlines
	// that could not be met given the backlog, and heavy jobs refused under
	// load (both 429; JobsRejected stays the queue-full 503 count).
	JobsShed int64 `json:"jobs_shed"`
	// QuarantineTrips counts breaker trips (including half-open probes that
	// failed and re-tripped); QuarantineRejections counts submissions
	// refused with 422 while their fingerprint was quarantined.
	QuarantineTrips        int64 `json:"quarantine_trips"`
	QuarantineRejections   int64 `json:"quarantine_rejections"`
	QuarantineFingerprints int64 `json:"quarantine_fingerprints"`
	// JournalReplays counts jobs restored or resumed from the journal at
	// startup; JournalTornRecords counts corrupt tail records discarded;
	// JournalErrors counts append failures (jobs proceed regardless).
	JournalReplays     int64 `json:"journal_replays"`
	JournalTornRecords int64 `json:"journal_torn_records"`
	JournalErrors      int64 `json:"journal_errors"`
	// JobLatencyEWMAMS is the admission controller's moving average of
	// per-job pipeline latency in milliseconds — the gauge behind
	// deadline-aware queueing and Retry-After estimates.
	JobLatencyEWMAMS float64 `json:"job_latency_ewma_ms"`
}

// Server is the identification daemon: job store, worker pool, result
// cache, and merged observability, behind the HTTP handler from Handler.
type Server struct {
	cfg   Config
	queue chan *Job
	wg    sync.WaitGroup

	// observer aggregates every completed job's per-run Observer; it has
	// its own internal lock, so /metrics snapshots it without holding mu
	// against running jobs.
	observer *gatewords.Observer

	// journal is the durable lifecycle log (nil without Config.JournalPath).
	// It has its own leaf lock; appends from under mu are plain file I/O.
	journal  *journal.Journal
	recovery RecoveryReport

	// bodies recycles request-body buffers (*bytes.Buffer) across POSTs;
	// see readBody.
	bodies sync.Pool

	mu       sync.Mutex
	closed   bool
	draining bool
	seq      int64
	jobs     map[string]*Job
	order    []string        // submission order, for listing
	inflight map[string]*Job // key -> primary queued/running job
	cache    *resultCache
	breaker  *breaker  // nil when quarantine is disabled
	adm      admission // overload-control state
	counters Counters

	// testJobGate, when non-nil, makes every worker receive one value
	// before starting a job — test-only, to pin queue states without races.
	testJobGate chan struct{}
	// testParseGate, when non-nil, runs in Submit between a miss's parse
	// and the second critical section — test-only, to hold a submission
	// there while another is admitted.
	testParseGate func()
}

// New starts a server and its worker pool, replaying the journal first when
// Config.JournalPath is set. Stop it with Close.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueDepth),
		observer: gatewords.NewObserver(),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		cache:    newResultCache(cfg.CacheEntries),
	}
	if cfg.QuarantineFailures > 0 {
		s.breaker = newBreaker(cfg.QuarantineFailures, cfg.QuarantineTTL)
	}
	if cfg.JournalPath != "" {
		var records []replayRecord
		j, torn, err := journal.Open(cfg.JournalPath, func(payload []byte) error {
			rec, err := decodeRecord(payload)
			if err == nil {
				records = append(records, rec)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("opening journal: %w", err)
		}
		s.journal = j
		// Replay before the workers start: resumed jobs land in the queue
		// with no worker racing the rebuild of the store.
		s.replayJournal(records, torn)
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer guard.Rescue("worker", func(*guard.GroupFailure) {
				// Backstop for a panic outside any job (the per-job boundary
				// in runJobGuarded handles everything job-scoped). The
				// worker dies, the process and its siblings do not.
				s.mu.Lock()
				s.counters.WorkerPanics++
				s.mu.Unlock()
			})
			for job := range s.queue {
				s.runJobGuarded(job)
			}
		}()
	}
	return s, nil
}

// StartDraining moves the server into drain: /healthz reports draining and
// new submissions are refused with 503, while polls keep being served so
// clients can collect results until Close finishes the backlog.
func (s *Server) StartDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close stops admissions, drains the queued jobs through the pool, and
// waits for in-flight jobs to finish. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.queue) // all sends hold mu and check closed first
	s.mu.Unlock()
	s.wg.Wait()
	if s.journal != nil {
		s.journal.Close() //nolint:errcheck // every record is already appended
	}
}

// effectiveTimeout normalizes a job's requested deadline against the
// server's default and cap.
func (s *Server) effectiveTimeout(requested time.Duration) time.Duration {
	t := requested
	if t <= 0 {
		t = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (t <= 0 || t > s.cfg.MaxTimeout) {
		t = s.cfg.MaxTimeout
	}
	return t
}

// submitError is a client-visible admission failure with an HTTP status.
// retryAfter > 0 becomes a Retry-After header; a non-nil doc replaces the
// default {"error": msg} body (the quarantine 422 document).
type submitError struct {
	status     int
	msg        string
	retryAfter int
	doc        any
}

func (e *submitError) Error() string { return e.msg }

// Submit admits one submission as a job. The returned job is already
// terminal for cache hits (State done, Cached set). The HTTP handler calls
// it for every body it does not answer from the raw bytes alone: any body
// whose sum no cached report holds (a first submission, a duplicate of a
// job still in flight, a body whose entry was evicted or has since been
// reached by another body), and every body while the server drains or
// after it closes.
//
// Hits and coalescing are keyed on the exact request, so they are answered
// in a first critical section before anything is parsed. Only a miss
// parses the source and fingerprints the design, outside the mutex; a
// second critical section then runs, in deliberate order: hits and
// coalescing again (an identical request may have been admitted while this
// one parsed; they consume no worker, so overload must not refuse them),
// the quarantine breaker (a poison input is refused before it can occupy a
// queue slot), admission control (deadline feasibility and cost shedding),
// and the bounded queue itself. A primary's accepted record journals src,
// so Config.Resume can re-enqueue it after a crash.
func (s *Server) Submit(src Source, opts JobOptions) (*Job, error) {
	if _, err := opts.lintMode(); err != nil {
		return nil, &submitError{status: 400, msg: err.Error()}
	}
	timeout := s.effectiveTimeout(time.Duration(opts.TimeoutMS) * time.Millisecond)
	opts.TimeoutMS = timeout.Milliseconds()
	key := requestKey(src, opts)

	s.mu.Lock()
	job, err := s.answerLocked(key, opts, src)
	s.mu.Unlock()
	if job != nil || err != nil {
		return job, err
	}

	d, err := parseSource(src)
	if err != nil {
		return nil, &submitError{status: 400, msg: err.Error()}
	}
	fp := d.Fingerprint()
	gates := d.Stats().Gates
	if s.testParseGate != nil {
		s.testParseGate()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if job, err := s.answerLocked(key, opts, src); job != nil || err != nil {
		return job, err
	}
	if qs := s.breaker.refuse(fp); qs != nil {
		s.counters.QuarantineRejections++
		return nil, &submitError{
			status:     422,
			msg:        qs.Error,
			retryAfter: int((qs.RetryAfterMS + 999) / 1000),
			doc:        qs,
		}
	}
	job = &Job{
		Key:         key,
		Fingerprint: fp,
		Module:      d.Name(),
		State:       StateQueued,
		Done:        make(chan struct{}),
		opts:        opts,
		timeout:     timeout,
		design:      d,
	}
	if se := s.admitLocked(job, gates); se != nil {
		s.counters.JobsShed++
		return nil, se
	}
	// A real execution. Admission and the enqueue are one critical section,
	// so the queue can never hold a job the store does not know.
	s.seq++
	job.ID = jobID(s.seq)
	select {
	case s.queue <- job:
	default:
		s.seq-- // the job was never admitted
		s.counters.JobsRejected++
		return nil, &submitError{
			status:     503,
			msg:        fmt.Sprintf("job queue full (%d pending)", cap(s.queue)),
			retryAfter: s.adm.retryAfterSeconds(len(s.queue), s.cfg.Workers),
		}
	}
	// Committed: if this fingerprint was half-open, this job is its probe.
	s.breaker.beginProbe(fp)
	s.counters.CacheMisses++
	s.counters.JobsQueued++
	s.inflight[key] = job
	s.registerLocked(job)
	s.journalAppendLocked(job.ID, "accepted", acceptedData{
		Key: key, Fingerprint: fp, Module: job.Module, Opts: opts,
		Bench: src.Bench, Verilog: src.Verilog, Top: src.Top,
	})
	return job, nil
}

// answerLocked settles a submission without an execution of its own where
// it can: it refuses it while the server is closed or draining, completes a
// cache hit on the spot, and attaches a duplicate of a queued or running job
// to that job. It returns nil, nil when the request needs a run. Caller
// holds mu.
func (s *Server) answerLocked(key string, opts JobOptions, src Source) (*Job, error) {
	if s.closed {
		return nil, &submitError{status: 503, msg: "server is shutting down"}
	}
	if s.draining {
		return nil, &submitError{status: 503, msg: "server is draining", retryAfter: 1}
	}
	if e, ok := s.cache.get(key); ok {
		return s.hitLocked(e, opts), nil
	}
	if primary, ok := s.inflight[key]; ok {
		s.seq++
		job := &Job{
			ID:            jobID(s.seq),
			Key:           key,
			Fingerprint:   primary.Fingerprint,
			Module:        primary.Module,
			State:         StateQueued,
			CoalescedWith: primary.ID,
			Done:          make(chan struct{}),
			opts:          opts,
		}
		primary.waiters = append(primary.waiters, job)
		s.counters.JobsCoalesced++
		s.registerLocked(job)
		s.journalAppendLocked(job.ID, "accepted", acceptedData{
			Key: key, Fingerprint: primary.Fingerprint, Module: primary.Module, Opts: opts,
			Coalesced: primary.ID, Bench: src.Bench, Verilog: src.Verilog, Top: src.Top,
		})
		return job, nil
	}
	return nil, nil
}

// answerBodyLocked completes a cache hit for a POST body without decoding
// it, when a body with these exact bytes has decoded to the key of a cached
// report. Equal bytes decode to the same request, so the hit is the one the
// decode path would serve. It returns nil, leaving the body to the decode
// path, for an unknown sum and while the server is closed or draining;
// in-flight duplicates are never indexed, so they coalesce there too.
// Caller holds mu.
func (s *Server) answerBodyLocked(sum bodySum) *Job {
	if s.closed || s.draining {
		return nil
	}
	e, ok := s.cache.getBody(sum)
	if !ok {
		return nil
	}
	return s.hitLocked(e, e.opts)
}

// hitLocked completes a submission with normalized options opts from cache
// entry e, for the decode path and the raw-body path alike. Caller holds mu.
func (s *Server) hitLocked(e cacheEntry, opts JobOptions) *Job {
	s.seq++
	job := &Job{
		ID:     jobID(s.seq),
		Key:    e.key,
		Module: e.module,
		State:  StateDone,
		Cached: true,
		Report: e.report.raw,
		stored: e.report,
		Done:   closedChan(),
		opts:   opts,
	}
	s.counters.CacheHits++
	s.registerLocked(job)
	s.counters.JobsDone++
	// A hit is terminal at acceptance: its one record carries no source
	// and names the job whose done record holds the report bytes.
	s.journalAppendLocked(job.ID, "accepted", acceptedData{
		Key: e.key, Module: e.module, Opts: opts, Cached: true, CacheFrom: e.origin,
	})
	return job
}

// noteBodyLocked records that a POST body with sum decoded to job's request
// and was admitted. A primary carries the sum to the cache entry its run
// stores; if that run has already finished, or the job was a cache hit,
// the entry takes the sum now. Coalesced duplicates record nothing. Caller
// holds mu.
func (s *Server) noteBodyLocked(job *Job, sum bodySum) {
	if job.CoalescedWith != "" {
		return
	}
	job.body = sum
	s.cache.setBody(job.Key, sum, job.opts)
}

func jobID(seq int64) string { return fmt.Sprintf("job-%06d", seq) }

func (s *Server) registerLocked(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.counters.JobsAccepted++
}

// Lookup returns the job with the given ID.
func (s *Server) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one primary job on a worker: per-job deadline, private
// Observer, one gatewords.Identify, serialized report. Completion moves the
// job — and every duplicate coalesced onto it — to a terminal state, feeds
// the cache, and folds the job's observations into the served aggregate.
// runJobGuarded is the worker's per-job recover boundary: a panic escaping
// runJob — bookkeeping outside executeJob's own pipeline boundary — fails
// the job and its coalesced waiters instead of killing the worker and
// leaving them waiting on a Done channel that never closes.
func (s *Server) runJobGuarded(job *Job) {
	defer guard.Rescue("job", func(f *guard.GroupFailure) {
		s.failJobAfterPanic(job, f)
	})
	s.runJob(job)
}

// failJobAfterPanic moves a job (and its waiters) to StateFailed after a
// recovered panic, repairing the counters the interrupted runJob left
// mid-update. Jobs already terminal are left untouched.
func (s *Server) failJobAfterPanic(job *Job, f *guard.GroupFailure) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.WorkerPanics++
	if s.inflight[job.Key] == job {
		delete(s.inflight, job.Key)
	}
	switch job.State {
	case StateRunning:
		s.counters.JobsRunning--
	case StateQueued:
		s.counters.JobsQueued--
	}
	msg := fmt.Sprintf("worker panicked at stage %q: %s", f.Stage, f.Message)
	if s.breaker.strike(job.Fingerprint, msg) {
		s.counters.QuarantineTrips++
	}
	terminalize := func(j *Job) {
		if j.State == StateDone || j.State == StateFailed {
			return
		}
		j.State = StateFailed
		j.Err = msg
		s.counters.JobsFailed++
		j.design = nil
		s.journalAppendLocked(j.ID, "failed", failedData{Error: msg})
		close(j.Done)
	}
	terminalize(job)
	for _, w := range job.waiters {
		terminalize(w)
	}
	job.waiters = nil
}

func (s *Server) runJob(job *Job) {
	if gate := s.testJobGate; gate != nil {
		<-gate
	}
	func() {
		// Deferred unlock so a panic between Lock and Unlock cannot leak mu
		// into failJobAfterPanic's own critical section.
		s.mu.Lock()
		defer s.mu.Unlock()
		job.State = StateRunning
		s.counters.JobsQueued--
		s.counters.JobsRunning++
		s.counters.PipelineRuns++
		s.journalAppendLocked(job.ID, "running", nil)
	}()

	observer := gatewords.NewObserver()
	start := time.Now()
	report, interrupted, err := executeJob(job, observer)
	elapsed := time.Since(start)

	// The per-job recorder merges whether the job succeeded or failed — a
	// failing job's observability is exactly when /metrics matters.
	s.observer.Merge(observer)

	s.mu.Lock()
	defer s.mu.Unlock()
	// Every execution outcome feeds the latency EWMA: failed and
	// deadline-expired runs occupied a worker just the same.
	s.adm.observe(elapsed)
	s.counters.JobsRunning--
	delete(s.inflight, job.Key)
	if err != nil || interrupted {
		// A panic or an expired deadline is a quarantine strike against the
		// input; enough consecutive ones trip its breaker.
		msg := "deadline expired"
		if err != nil {
			msg = err.Error()
		}
		if s.breaker.strike(job.Fingerprint, msg) {
			s.counters.QuarantineTrips++
		}
	} else {
		s.breaker.succeed(job.Fingerprint)
	}
	var stored *storedReport
	if err == nil {
		stored = &storedReport{raw: report}
	}
	if err == nil && !interrupted {
		// Interrupted (deadline-truncated) reports are wall-clock artifacts,
		// not properties of the design; they are served but never cached.
		s.cache.put(cacheEntry{
			key: job.Key, origin: job.ID, module: job.Module, report: stored,
			body: job.body, opts: job.opts,
		})
	}
	// Journal the terminal transitions before finishLocked closes the Done
	// channels: a client that has seen a result must find it after a crash.
	if err != nil {
		s.journalAppendLocked(job.ID, "failed", failedData{Error: err.Error()})
	} else {
		s.journalAppendLocked(job.ID, "done", doneData{Report: report, Interrupted: interrupted})
	}
	for _, w := range job.waiters {
		if err != nil {
			s.journalAppendLocked(w.ID, "failed", failedData{Error: err.Error()})
		} else {
			s.journalAppendLocked(w.ID, "done", doneData{Primary: job.ID, Interrupted: interrupted})
		}
	}
	s.finishLocked(job, stored, interrupted, err)
	for _, w := range job.waiters {
		s.finishLocked(w, stored, interrupted, err)
	}
	job.waiters = nil
}

// executeJob is the panic boundary around one pipeline run: the pipeline
// already isolates per-group panics, and anything escaping it becomes a
// failed job rather than a dead worker.
func executeJob(job *Job, observer *gatewords.Observer) (report []byte, interrupted bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("identification panicked: %v", v)
		}
	}()
	ctx := context.Background()
	if job.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.timeout)
		defer cancel()
	}
	fo, err := job.opts.facadeOptions(ctx, observer)
	if err != nil {
		return nil, false, err
	}
	// Per-input fault injection point for the chaos harness: a plant keyed
	// "job:<module>" models a poison input that panics on execution.
	guard.Inject("job:"+job.Module, guard.AnyGroup)
	start := time.Now()
	rep, err := gatewords.Identify(job.design, fo)
	if err != nil {
		return nil, false, err
	}
	var evp *gatewords.Evaluation
	if job.opts.Evaluate {
		ev := gatewords.Evaluate(job.design, rep)
		evp = &ev
	}
	var buf bytes.Buffer
	if err := gatewords.WriteJSON(&buf, job.design, rep, evp, job.opts.IncludeAll, time.Since(start)); err != nil {
		return nil, false, err
	}
	return buf.Bytes(), rep.Interrupted, nil
}

func (s *Server) finishLocked(job *Job, report *storedReport, interrupted bool, err error) {
	if err != nil {
		job.State = StateFailed
		job.Err = err.Error()
		s.counters.JobsFailed++
	} else {
		job.State = StateDone
		job.Report = report.raw
		job.stored = report
		job.Interrupted = interrupted
		s.counters.JobsDone++
	}
	job.design = nil // the serialized report is the result; free the netlist
	close(job.Done)
}

// Metrics returns a consistent snapshot of the server counters and the
// merged pipeline observability of completed jobs.
func (s *Server) Metrics() (Counters, *gatewords.Observer) {
	s.mu.Lock()
	c := s.counters
	c.CacheEntries = int64(s.cache.len())
	c.JobLatencyEWMAMS = s.adm.latencyMS()
	if s.breaker != nil {
		c.QuarantineFingerprints = int64(len(s.breaker.entries))
	}
	s.mu.Unlock()
	return c, s.observer.Snapshot()
}

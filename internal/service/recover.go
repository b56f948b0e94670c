package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gatewords"
	"gatewords/internal/service/journal"
)

// The durable job journal records one entry per lifecycle transition:
//
//	accepted  (Submit)   key, module, normalized options and how the job was
//	                     satisfied (fresh primary / cache hit / coalesced);
//	                     primaries and coalesced duplicates add the
//	                     fingerprint and the re-parseable submission source,
//	                     while a cache hit, terminal at acceptance, names the
//	                     job whose done record holds its bytes instead
//	running   (worker)   the job left the queue
//	done      (worker)   the serialized report — inline for primaries, a
//	                     primary reference for coalesced duplicates (their
//	                     bytes are the primary's bytes, which is exactly the
//	                     invariant replay preserves)
//	failed    (worker)   the failure message
//
// Replay at startup (New with Config.JournalPath) decodes each record once,
// as journal.Open reads it, and folds the records into per-job outcomes:
// terminal jobs are restored verbatim — done jobs serve byte-identical
// reports, completed primaries re-seed the result cache — and non-terminal
// jobs are either re-enqueued (Config.Resume, queued jobs with a journaled
// source) or honestly marked failed as interrupted. Torn tails are
// discarded and counted by journal.Open.

type acceptedData struct {
	Key         string     `json:"key"`
	Fingerprint string     `json:"fingerprint,omitempty"`
	Module      string     `json:"module,omitempty"`
	Opts        JobOptions `json:"opts"`
	Coalesced   string     `json:"coalesced_with,omitempty"`
	Cached      bool       `json:"cached,omitempty"`
	CacheFrom   string     `json:"cache_from,omitempty"` // job whose report the cache served
	Bench       string     `json:"bench,omitempty"`
	Verilog     string     `json:"verilog,omitempty"`
	Top         string     `json:"top,omitempty"`
}

func (a *acceptedData) source() Source {
	return Source{Bench: a.Bench, Verilog: a.Verilog, Top: a.Top}
}

type doneData struct {
	Report      json.RawMessage `json:"report,omitempty"`
	Primary     string          `json:"primary,omitempty"` // job carrying the bytes
	Interrupted bool            `json:"interrupted,omitempty"`
}

type failedData struct {
	Error string `json:"error"`
}

// journalAppendLocked writes one record, counting (never failing on) append
// errors: a full disk costs durability, not availability. Callers hold the
// server mutex; the append is plain file I/O under the journal's own leaf
// lock.
func (s *Server) journalAppendLocked(jobID, event string, data any) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(jobID, event, data); err != nil {
		s.counters.JournalErrors++
	}
}

// RecoveryReport summarizes one startup replay, for operator logs and the
// chaos harness.
type RecoveryReport struct {
	// Journaled reports whether a journal is configured at all.
	Journaled bool
	// Restored counts terminal jobs served straight from the journal.
	Restored int
	// Resumed counts journal-queued jobs re-enqueued for execution.
	Resumed int
	// Interrupted counts in-flight jobs marked failed as interrupted.
	Interrupted int
	// TornRecords counts discarded torn/corrupt journal tails.
	TornRecords int
}

// Recovery returns the startup replay summary (zero if no journal).
func (s *Server) Recovery() RecoveryReport { return s.recovery }

// replJob is one job's folded journal history.
type replJob struct {
	id      string
	acc     acceptedData
	state   string // queued | running | done | failed
	done    *doneData
	failMsg string
	stored  *storedReport // done.Report's holder, once a job resolves to it
}

// replayRecord is one journal payload decoded in a single pass: its job and
// event, and its data read into the fields of all three data-carrying
// events at once (their JSON names are distinct).
type replayRecord struct {
	Job   string     `json:"job"`
	Event string     `json:"event"`
	Data  recordData `json:"data"`
	// doneOK reports that data decodes whole as a done record, which a
	// done record needs in order to count.
	doneOK bool
}

type recordData struct {
	acceptedData
	doneData
	failedData
}

// decodeRecord decodes one journal payload. A payload that is not a {job,
// event, data} record is an error, which ends the replay as a torn tail.
// One json.Unmarshal settles every payload Append writes. A payload it does
// not settle, because a field has the wrong type or a done record's data
// is empty (which that decode cannot tell from a record without data), is
// decoded again in two passes: the record with raw data, then the data as
// its event's type. A CRC-valid record whose data does not decode is a
// version skew, not a tear: an accepted record keeps its job with the
// fields that did decode (without a source it fails honestly later), a
// failed record keeps its job failed, and a done record is ignored. The
// one pass and the two agree on every payload that names data once, as
// every payload Append writes does.
func decodeRecord(payload []byte) (replayRecord, error) {
	var rec replayRecord
	if json.Unmarshal(payload, &rec) == nil {
		if rec.Event != "done" {
			return rec, nil
		}
		if d := rec.Data.doneData; len(d.Report) > 0 || d.Primary != "" || d.Interrupted {
			rec.doneOK = true
			return rec, nil
		}
	}
	var raw journal.Record
	if err := json.Unmarshal(payload, &raw); err != nil {
		return replayRecord{}, err
	}
	rec = replayRecord{Job: raw.Job, Event: raw.Event}
	switch raw.Event {
	case "accepted":
		_ = json.Unmarshal(raw.Data, &rec.Data.acceptedData) // best effort
	case "done":
		rec.doneOK = json.Unmarshal(raw.Data, &rec.Data.doneData) == nil
	case "failed":
		_ = json.Unmarshal(raw.Data, &rec.Data.failedData) // best effort
	}
	return rec, nil
}

// replayJournal rebuilds the job store from the journal's records. Called
// from New before the workers start, with the store empty; it takes the
// mutex anyway so the helpers it shares with the serving path stay honest.
func (s *Server) replayJournal(records []replayRecord, torn int) {
	s.mu.Lock()
	defer s.mu.Unlock()

	byID := make(map[string]*replJob)
	var order []*replJob
	var maxSeq int64
	for _, rec := range records {
		if n := jobSeq(rec.Job); n > maxSeq {
			maxSeq = n
		}
		switch rec.Event {
		case "accepted":
			if byID[rec.Job] != nil {
				continue // duplicate accepted: first wins
			}
			j := &replJob{id: rec.Job, state: StateQueued, acc: rec.Data.acceptedData}
			if j.acc.Cached && j.acc.CacheFrom != "" {
				j.state = StateDone // a hit is terminal at acceptance
				j.done = &doneData{Primary: j.acc.CacheFrom}
			}
			byID[rec.Job] = j
			order = append(order, j)
		case "running":
			if j := byID[rec.Job]; j != nil && j.state == StateQueued {
				j.state = StateRunning
			}
		case "done":
			if j := byID[rec.Job]; j != nil && j.state != StateDone && j.state != StateFailed && rec.doneOK {
				d := rec.Data.doneData
				j.state = StateDone
				j.done = &d
			}
		case "failed":
			if j := byID[rec.Job]; j != nil && j.state != StateDone && j.state != StateFailed {
				j.state = StateFailed
				j.failMsg = rec.Data.Error
			}
		}
	}
	if maxSeq > s.seq {
		s.seq = maxSeq
	}

	rep := RecoveryReport{Journaled: true, TornRecords: torn}
	for _, j := range order {
		switch j.state {
		case StateDone:
			report, ok := resolveReport(byID, j)
			if !ok {
				s.restoreFailedLocked(j, "journal incomplete: report bytes lost with the primary's record")
				rep.Interrupted++
				continue
			}
			job := &Job{
				ID:            j.id,
				Key:           j.acc.Key,
				Fingerprint:   j.acc.Fingerprint,
				Module:        j.acc.Module,
				State:         StateDone,
				Cached:        j.acc.Cached,
				CoalescedWith: j.acc.Coalesced,
				Interrupted:   j.done.Interrupted,
				Report:        report.raw,
				stored:        report,
				Done:          closedChan(),
				opts:          j.acc.Opts,
			}
			s.registerLocked(job)
			s.counters.JobsDone++
			// Re-seed the cache from primaries (inline bytes) so the
			// restarted daemon answers repeats in O(1) again.
			if len(j.done.Report) > 0 && !j.done.Interrupted && j.acc.Key != "" {
				s.cache.put(cacheEntry{key: j.acc.Key, origin: job.ID, module: job.Module, report: report})
			}
			rep.Restored++
		case StateFailed:
			s.restoreFailedLocked(j, j.failMsg)
			rep.Restored++
		case StateRunning:
			s.restoreFailedLocked(j, "interrupted: daemon restarted mid-run")
			s.journalAppendLocked(j.id, "failed", failedData{Error: "interrupted: daemon restarted mid-run"})
			rep.Interrupted++
		case StateQueued:
			if s.cfg.Resume && s.resumeLocked(j) {
				rep.Resumed++
				continue
			}
			msg := "interrupted: daemon restarted while queued"
			if s.cfg.Resume {
				msg = "interrupted: daemon restarted while queued and the job could not be re-enqueued"
			}
			s.restoreFailedLocked(j, msg)
			s.journalAppendLocked(j.id, "failed", failedData{Error: msg})
			rep.Interrupted++
		}
	}
	s.recovery = rep
	s.counters.JournalReplays = int64(rep.Restored + rep.Resumed)
	s.counters.JournalTornRecords = int64(torn)
}

// resolveReport finds a done job's report: inline for primaries, via the
// referenced primary for cache hits and coalesced duplicates. Every job
// that resolves to one primary's bytes shares that primary's storedReport.
func resolveReport(byID map[string]*replJob, j *replJob) (*storedReport, bool) {
	p := j
	if len(j.done.Report) == 0 {
		p = byID[j.done.Primary]
		if p == nil || p.done == nil || len(p.done.Report) == 0 {
			return nil, false
		}
	}
	if p.stored == nil {
		p.stored = &storedReport{raw: p.done.Report}
	}
	return p.stored, true
}

// restoreFailedLocked registers one journal job in terminal failed state.
func (s *Server) restoreFailedLocked(j *replJob, msg string) {
	job := &Job{
		ID:            j.id,
		Key:           j.acc.Key,
		Fingerprint:   j.acc.Fingerprint,
		Module:        j.acc.Module,
		State:         StateFailed,
		CoalescedWith: j.acc.Coalesced,
		Err:           msg,
		Done:          closedChan(),
		opts:          j.acc.Opts,
	}
	s.registerLocked(job)
	s.counters.JobsFailed++
}

// resumeLocked re-enqueues one journal-queued job from its journaled
// source. Duplicate keys coalesce exactly as live submissions do.
func (s *Server) resumeLocked(j *replJob) bool {
	src := j.acc.source()
	if src == (Source{}) {
		return false
	}
	d, err := parseSource(src)
	if err != nil {
		return false
	}
	job := &Job{
		ID:          j.id,
		Key:         j.acc.Key,
		Fingerprint: j.acc.Fingerprint,
		Module:      j.acc.Module,
		State:       StateQueued,
		Done:        make(chan struct{}),
		opts:        j.acc.Opts,
		timeout:     timeoutFromOpts(j.acc.Opts),
	}
	if primary, ok := s.inflight[job.Key]; ok {
		job.CoalescedWith = primary.ID
		primary.waiters = append(primary.waiters, job)
		s.counters.JobsCoalesced++
		s.registerLocked(job)
		return true
	}
	job.design = d
	select {
	case s.queue <- job:
	default:
		return false // resumed backlog exceeds this configuration's queue
	}
	s.counters.JobsQueued++
	s.inflight[job.Key] = job
	s.registerLocked(job)
	return true
}

// jobSeq parses the numeric suffix of "job-000042" ids (0 if foreign).
func jobSeq(id string) int64 {
	const prefix = "job-"
	if !strings.HasPrefix(id, prefix) {
		return 0
	}
	n, err := strconv.ParseInt(id[len(prefix):], 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// Source is the text of one submission: Submit keys the request on it,
// parses it on a miss and journals it for jobs that may run, so -resume can
// re-enqueue a queued job after a crash. Exactly one of Bench or Verilog is
// set (Top optionally qualifies Verilog).
type Source struct {
	Bench   string
	Verilog string
	Top     string
}

// parseSource loads a submission's design, for a live miss and for a
// resumed job alike.
func parseSource(src Source) (*gatewords.Design, error) {
	switch {
	case src.Verilog != "" && src.Bench != "":
		return nil, fmt.Errorf("submit exactly one of verilog or bench, not both")
	case src.Verilog != "":
		if src.Top != "" {
			return gatewords.ParseVerilogHierarchy("request.v", src.Verilog, src.Top)
		}
		return gatewords.ParseVerilogString("request.v", src.Verilog)
	case src.Bench != "":
		if src.Top != "" {
			return nil, fmt.Errorf("top applies only to verilog submissions")
		}
		return gatewords.GenerateBenchmark(src.Bench)
	default:
		return nil, fmt.Errorf("submit one of verilog or bench")
	}
}

func timeoutFromOpts(o JobOptions) time.Duration {
	return time.Duration(o.TimeoutMS) * time.Millisecond
}

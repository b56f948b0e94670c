// Package journal is the durable job journal behind wordidd's crash
// recovery: an append-only, checksummed write-ahead log of job lifecycle
// records. The daemon appends one record per state transition (accepted,
// running, done-with-report-bytes, failed) and replays the log on startup,
// so a restarted daemon can serve every journal-completed job's report
// byte-identical to the pre-crash response and report in-flight jobs as
// interrupted instead of losing them.
//
// The framing is deliberately dumb: every record is
//
//	[4-byte little-endian payload length][4-byte IEEE CRC32 of payload][payload]
//
// with the payload being the record's JSON encoding. A crash can tear at
// most the final append, and every tear is detectable: a short header, a
// short payload, an implausible length, or a checksum mismatch all stop the
// replay at the last fully valid record. Torn tails are counted, reported,
// and truncated away on open — never silently replayed, never fatal. The
// journal makes no fsync calls: the durability target is process death
// (SIGKILL, panic, OOM), where the page cache survives, not power loss.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// MaxRecordBytes bounds one record's payload. Anything larger in a header is
// treated as a torn record rather than an allocation request: a corrupt
// length field must not make replay attempt a multi-gigabyte read.
const MaxRecordBytes = 1 << 28 // 256 MiB

const headerBytes = 8 // 4-byte length + 4-byte CRC32

// Record is one journaled lifecycle event, the {job, event, data} object
// every payload holds. Job and Event identify the transition; Data carries
// the event's payload (report bytes, error text, submission source) as the
// JSON Append encoded from the caller's value — the journal itself does not
// interpret it. Replay decodes payloads as Records; Open hands them to its
// caller, which can decode data into its own types in the same pass.
type Record struct {
	Job   string          `json:"job"`
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Journal is an open, append-positioned journal file. Append is
// goroutine-safe; records are framed in one Write call each, so concurrent
// appenders interleave whole records, never bytes.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
}

// Open opens (creating if absent) the journal at path, replays its records,
// truncates any torn tail so subsequent appends start on a record boundary,
// and returns the journal positioned for append and the number of torn
// tails discarded (0 or 1: a tear ends the replay). Open hands each
// checksummed payload, in log order, to decode, which must not keep the
// slice past the call. A payload decode rejects is not a record of this
// journal: it ends the replay and counts as torn, like a broken frame.
func Open(path string, decode func(payload []byte) error) (*Journal, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	valid, torn, err := replay(f, decode)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("journal %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("journal %s: truncating torn tail: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("journal %s: %w", path, err)
	}
	return &Journal{f: f}, torn, nil
}

// Replay reads every valid record from r, stopping at the first torn or
// corrupt one, where a checksummed payload that does not decode as a Record
// is corrupt too. It returns the valid prefix and the number of torn tails
// encountered (0 or 1). Only a real read error is an error: corruption is a
// counted, expected outcome of a crash, not a failure.
func Replay(r io.Reader) ([]Record, int, error) {
	var records []Record
	_, torn, err := replay(r, func(payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		records = append(records, rec)
		return nil
	})
	return records, torn, err
}

// replay hands every valid payload to decode and returns the byte offset
// just past the last valid record, for Open's truncation. One buffer, grown
// to the largest payload, holds each payload in turn.
func replay(r io.Reader, decode func(payload []byte) error) (valid int64, torn int, err error) {
	br := newByteCounter(r)
	var header [headerBytes]byte
	var payload []byte
	for {
		valid = br.n
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, torn, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, torn + 1, nil // torn header
			}
			return valid, torn, err
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > MaxRecordBytes {
			return valid, torn + 1, nil // implausible length: corrupt
		}
		if uint32(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, torn + 1, nil // torn payload
			}
			return valid, torn, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return valid, torn + 1, nil // bit rot or torn overwrite
		}
		if decode(payload) != nil {
			// A checksummed payload that is not a record was written by
			// something that is not this journal; stop rather than guess.
			return valid, torn + 1, nil
		}
	}
}

// Append journals one record for job and event, with data (nil for none)
// as its payload: data is marshalled once, straight into the frame, which
// is written in a single write call. The journal does the marshalling
// itself, so a record can never carry invalid JSON; the framed bytes equal
// Encode(Record{job, event, json.Marshal(data)}). An error leaves the
// journal usable; the caller decides whether lost durability is fatal (the
// daemon keeps serving and counts it).
func (j *Journal) Append(job, event string, data any) error {
	buf, err := frame(job, event, data)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// framedRecord is Record with its payload still unmarshalled, so one
// encoding pass renders the whole record.
type framedRecord struct {
	Job   string `json:"job"`
	Event string `json:"event"`
	Data  any    `json:"data,omitempty"`
}

// frame renders one record in framed form: header, then the JSON payload,
// encoded into one buffer.
func frame(job, event string, data any) ([]byte, error) {
	var b bytes.Buffer
	b.Write(make([]byte, headerBytes)) // filled in below, once the payload is known
	if err := json.NewEncoder(&b).Encode(framedRecord{Job: job, Event: event, Data: data}); err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	buf := b.Bytes()
	buf = buf[:len(buf)-1] // Encode's trailing newline
	payload := buf[headerBytes:]
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	putHeader(buf, payload)
	return buf, nil
}

// putHeader writes payload's length and checksum into the first headerBytes
// of hdr.
func putHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// Sync flushes the journal to stable storage (crash-beyond-process-death
// durability, for callers that want it).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	return j.f.Sync()
}

// Close closes the journal file. Safe to call more than once.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// AppendTo is the test-and-tooling helper for building journals without an
// open Journal: it frames an already-encoded rec onto w, in the format
// Append writes.
func AppendTo(w io.Writer, rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	var header [headerBytes]byte
	putHeader(header[:], payload)
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// Encode renders rec in framed form, for tests that corrupt specific bytes.
func Encode(rec Record) []byte {
	var buf bytes.Buffer
	if err := AppendTo(&buf, rec); err != nil {
		panic(err) // Record marshals to JSON by construction
	}
	return buf.Bytes()
}

// byteCounter tracks how many bytes have been consumed, giving replay the
// offset of the last valid record boundary.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

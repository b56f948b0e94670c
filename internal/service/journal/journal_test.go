package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func rec(job, event, data string) Record {
	r := Record{Job: job, Event: event}
	if data != "" {
		r.Data = json.RawMessage(data)
	}
	return r
}

// openRecords opens the journal at path, decoding its payloads as Records.
func openRecords(path string) (*Journal, []Record, int, error) {
	var records []Record
	j, torn, err := Open(path, func(payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		records = append(records, rec)
		return nil
	})
	return j, records, torn, err
}

// appendRec journals r through Append, handing its raw payload over as the
// value to encode.
func appendRec(j *Journal, r Record) error {
	var data any
	if r.Data != nil {
		data = r.Data
	}
	return j.Append(r.Job, r.Event, data)
}

// TestRoundTrip pins the basic contract: append N records, reopen, get the
// same N back, torn count zero, and appends after reopen extend the log.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, records, torn, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 || torn != 0 {
		t.Fatalf("fresh journal replayed %d records, %d torn", len(records), torn)
	}
	want := []Record{
		rec("job-000001", "accepted", `{"key":"k1"}`),
		rec("job-000001", "running", ""),
		rec("job-000001", "done", `{"report":"eyJtIjoxfQ=="}`),
	}
	for _, r := range want {
		if err := appendRec(j, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	j2, records, torn, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if torn != 0 || !reflect.DeepEqual(records, want) {
		t.Fatalf("replay: torn=%d records=%+v, want %+v", torn, records, want)
	}
	if err := appendRec(j2, rec("job-000002", "accepted", "")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, records, _, err = openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 || records[3].Job != "job-000002" {
		t.Fatalf("append after reopen lost records: %+v", records)
	}
}

// TestAppendMatchesEncode pins Append's single encoding pass against the
// two-pass form: marshalling the payload, then the Record that carries it
// as raw JSON. The framed bytes must be identical for HTML-sensitive
// characters, U+2028 and U+2029, escaped Verilog identifiers, uncompacted
// raw JSON and no payload at all; a payload that cannot be encoded writes
// nothing.
func TestAppendMatchesEncode(t *testing.T) {
	type source struct {
		Verilog string `json:"verilog"`
		Top     string `json:"top,omitempty"`
	}
	payloads := []any{
		nil,
		source{
			Verilog: "module m (\\a<b>&c[0] , y);\n  input \\a<b>&c[0] ;\u2028\u2029 // \"q\"\n\tBUF U1 (y, \\a<b>&c[0] );\nendmodule\n",
			Top:     "m<&>",
		},
		json.RawMessage(`{ "report" : { "words" : [ "\\d3_0[0] ", "<&>" ] } }`),
		map[string]any{"error": "panic: <nil> & \u2028", "n": 3},
		"plain",
	}
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _, _, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, data := range payloads {
		job := fmt.Sprintf("job-%06d", i)
		if err := j.Append(job, "done<&>", data); err != nil {
			t.Fatal(err)
		}
		r := Record{Job: job, Event: "done<&>"}
		if data != nil {
			raw, err := json.Marshal(data)
			if err != nil {
				t.Fatal(err)
			}
			r.Data = raw
		}
		want.Write(Encode(r))
	}
	if err := j.Append("job-x", "done", make(chan int)); err == nil {
		t.Error("appending an unencodable payload succeeded")
	}
	j.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Append framed\n%q\nwant\n%q", got, want.Bytes())
	}
}

// TestReplayCorruption is the corruption table: every way a crash or bit
// flip can damage the log must stop replay at the last valid record, count
// exactly one torn tail, and never panic.
func TestReplayCorruption(t *testing.T) {
	good := []Record{
		rec("job-000001", "accepted", `{"key":"a"}`),
		rec("job-000001", "done", `{"report":"aGk="}`),
		rec("job-000002", "accepted", `{"key":"b"}`),
	}
	var clean bytes.Buffer
	for _, r := range good {
		if err := AppendTo(&clean, r); err != nil {
			t.Fatal(err)
		}
	}
	last := Encode(good[2])

	cases := []struct {
		name      string
		corrupt   func() []byte
		wantValid int // records surviving replay
		wantTorn  int
	}{
		{"clean", func() []byte { return clean.Bytes() }, 3, 0},
		{"empty", func() []byte { return nil }, 0, 0},
		{"truncated-mid-payload", func() []byte {
			b := bytes.Clone(clean.Bytes())
			return b[:len(b)-len(last)+headerBytes+3] // 3 bytes into the last payload
		}, 2, 1},
		{"truncated-mid-header", func() []byte {
			b := bytes.Clone(clean.Bytes())
			return b[:len(b)-len(last)+5] // 5 of 8 header bytes
		}, 2, 1},
		{"bit-flipped-checksum", func() []byte {
			b := bytes.Clone(clean.Bytes())
			b[len(b)-len(last)+4] ^= 0x01 // first CRC byte of the last record
			return b
		}, 2, 1},
		{"bit-flipped-payload", func() []byte {
			b := bytes.Clone(clean.Bytes())
			b[len(b)-1] ^= 0x80
			return b
		}, 2, 1},
		{"zero-length-record", func() []byte {
			b := bytes.Clone(clean.Bytes())
			return append(b, make([]byte, headerBytes)...)
		}, 3, 1},
		{"implausible-length", func() []byte {
			b := bytes.Clone(clean.Bytes())
			return append(b, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
		}, 3, 1},
		{"mid-log-corruption-discards-suffix", func() []byte {
			// A flipped byte in the FIRST record: replay must stop there and
			// not resynchronize onto the later (intact) records.
			b := bytes.Clone(clean.Bytes())
			b[headerBytes+2] ^= 0x04
			return b
		}, 0, 1},
		{"checksummed-non-record", func() []byte {
			// A correctly framed, correctly checksummed payload that is not a
			// Record object: written by something that is not this journal.
			payload := []byte(`[1,2,3]`)
			hdr := make([]byte, headerBytes)
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
			b := bytes.Clone(clean.Bytes())
			return append(append(b, hdr...), payload...)
		}, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			records, torn, err := Replay(bytes.NewReader(tc.corrupt()))
			if err != nil {
				t.Fatalf("replay errored: %v", err)
			}
			if len(records) != tc.wantValid || torn != tc.wantTorn {
				t.Fatalf("replay: %d records, %d torn; want %d, %d",
					len(records), torn, tc.wantValid, tc.wantTorn)
			}
			for i, r := range records {
				if !reflect.DeepEqual(r, good[i]) {
					t.Errorf("record %d = %+v, want %+v", i, r, good[i])
				}
			}
		})
	}
}

// TestOpenTruncatesTornTail pins that Open repairs the file: after opening a
// torn journal, the tail is gone from disk and appends produce a log whose
// replay carries the old valid prefix plus the new records, torn-free.
func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	var buf bytes.Buffer
	if err := AppendTo(&buf, rec("job-000001", "done", `{"report":"eA=="}`)); err != nil {
		t.Fatal(err)
	}
	torn := Encode(rec("job-000002", "accepted", ""))
	buf.Write(torn[:len(torn)-2]) // crash mid-append
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	j, records, tornCount, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || tornCount != 1 {
		t.Fatalf("open: %d records, %d torn; want 1, 1", len(records), tornCount)
	}
	if err := appendRec(j, rec("job-000003", "accepted", "")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, records, tornCount, err = openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if tornCount != 0 || len(records) != 2 ||
		records[0].Job != "job-000001" || records[1].Job != "job-000003" {
		t.Fatalf("repaired journal replay: torn=%d %+v", tornCount, records)
	}
}

// TestOpenStopsAtRejectedPayload pins Open's decode contract: the first
// payload the caller's decode rejects ends the replay as one torn tail, and
// Open truncates the log there, so a reopen sees only the records before it.
// Each payload handed to decode is exactly the one appended.
func TestOpenStopsAtRejectedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	want := []Record{
		rec("job-000001", "done", `{"report":"`+strings.Repeat("x", 4096)+`"}`),
		rec("job-000001", "running", ""),
		rec("job-000002", "alien", ""),
		rec("job-000003", "running", ""),
	}
	var buf bytes.Buffer
	for _, r := range want {
		if err := AppendTo(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []Record
	j, torn, err := Open(path, func(payload []byte) error {
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		if r.Event == "alien" {
			return errors.New("not a record of this journal")
		}
		seen = append(seen, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if torn != 1 || !reflect.DeepEqual(seen, want[:2]) {
		t.Fatalf("open: torn %d, decoded %+v; want 1, %+v", torn, seen, want[:2])
	}
	_, records, torn, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || !reflect.DeepEqual(records, want[:2]) {
		t.Fatalf("reopen after truncation: torn %d, %+v", torn, records)
	}
}

// TestConcurrentAppend pins that concurrent appenders interleave whole
// records: replay sees every record intact, in some order.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _, _, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := rec(fmt.Sprintf("job-%d-%d", w, i), "running", "")
				if err := appendRec(j, r); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	_, records, torn, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(records) != writers*per {
		t.Fatalf("replay: %d records, %d torn; want %d, 0", len(records), torn, writers*per)
	}
	seen := map[string]bool{}
	for _, r := range records {
		if seen[r.Job] {
			t.Fatalf("duplicate record %q", r.Job)
		}
		seen[r.Job] = true
	}
}

// TestAppendAfterClose pins the closed-journal contract.
func TestAppendAfterClose(t *testing.T) {
	j, _, _, err := openRecords(filepath.Join(t.TempDir(), "j.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append("a", "b", nil); err == nil {
		t.Error("append after close succeeded")
	}
	if err := j.Sync(); err == nil {
		t.Error("sync after close succeeded")
	}
}

// FuzzJournalReplay throws arbitrary bytes at Replay: it must never panic,
// and whenever the input is a valid framed prefix the records must round
// trip. The seed corpus covers clean logs and every corruption class.
func FuzzJournalReplay(f *testing.F) {
	var clean bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := AppendTo(&clean, rec(fmt.Sprintf("job-%06d", i), "accepted", `{"key":"k"}`)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Add(clean.Bytes())
	f.Add(clean.Bytes()[:clean.Len()-3])
	flipped := bytes.Clone(clean.Bytes())
	flipped[5] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, torn, err := Replay(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory replay cannot error: %v", err)
		}
		if torn > 1 {
			t.Fatalf("torn = %d; a replay stops at the first tear", torn)
		}
		// Round-trip property: re-framing the replayed records must replay
		// identically (framing is canonical for what it accepted).
		var again bytes.Buffer
		for _, r := range records {
			if err := AppendTo(&again, r); err != nil {
				t.Fatalf("re-framing replayed record: %v", err)
			}
		}
		records2, torn2, _ := Replay(bytes.NewReader(again.Bytes()))
		if torn2 != 0 || len(records2) != len(records) {
			t.Fatalf("round trip: %d records %d torn, want %d 0", len(records2), torn2, len(records))
		}
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuffer lets the test read stdout while run() is still writing it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// TestServeSmoke is the end-to-end daemon exercise behind `make serve-smoke`:
// boot wordidd on an ephemeral port, submit a benchmark job over HTTP, poll
// it to completion, resubmit its exact body and a re-spaced copy for two
// cache hits, check /metrics, then shut the daemon down with SIGTERM and
// require a clean exit.
func TestServeSmoke(t *testing.T) {
	stdout := &lockedBuffer{}
	stderr := &lockedBuffer{}
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, stdout, stderr)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenLine.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address\nstdout: %s\nstderr: %s", stdout, stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	submit := func(body string) (map[string]any, int) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("submit response: %v", err)
		}
		return doc, resp.StatusCode
	}

	doc, code := submit(`{"bench": "b08a", "options": {"evaluate": true}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", code, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit response carries no id: %v", doc)
	}

	var final map[string]any
	deadline = time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &final); err != nil {
			t.Fatal(err)
		}
		if st := final["status"]; st == "done" || st == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final["status"] != "done" {
		t.Fatalf("job failed: %v", final["error"])
	}
	report, ok := final["report"].(map[string]any)
	if !ok {
		t.Fatalf("done job carries no report: %v", final)
	}
	if report["module"] != "b08a" {
		t.Errorf("report module = %v, want b08a", report["module"])
	}

	// A byte-identical resubmission is served from the cache without a
	// decode; a re-spaced copy with its fields reordered is the same request
	// and is served the same report through a decode.
	dup, code := submit(`{"bench": "b08a", "options": {"evaluate": true}}`)
	if code != http.StatusOK || dup["cached"] != true {
		t.Fatalf("duplicate submit: status %d, cached=%v", code, dup["cached"])
	}
	respaced, code := submit(`{"options": {"evaluate": true}, "bench": "b08a"}`)
	if code != http.StatusOK || respaced["cached"] != true {
		t.Fatalf("re-spaced duplicate submit: status %d, cached=%v", code, respaced["cached"])
	}
	if !reflect.DeepEqual(respaced["report"], dup["report"]) || respaced["key"] != dup["key"] {
		t.Errorf("re-spaced duplicate served key %v and another report than the exact one's (key %v)", respaced["key"], dup["key"])
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var metrics struct {
		Server struct {
			JobsDone     int64 `json:"jobs_done"`
			PipelineRuns int64 `json:"pipeline_runs"`
			CacheHits    int64 `json:"cache_hits"`
		} `json:"server"`
		Pipeline json.RawMessage `json:"pipeline"`
	}
	if err := json.Unmarshal(metricsBody, &metrics); err != nil {
		t.Fatalf("metrics: %v\n%s", err, metricsBody)
	}
	if metrics.Server.JobsDone != 3 || metrics.Server.PipelineRuns != 1 || metrics.Server.CacheHits != 2 {
		t.Errorf("metrics done/runs/hits = %d/%d/%d, want 3/1/2\n%s",
			metrics.Server.JobsDone, metrics.Server.PipelineRuns, metrics.Server.CacheHits, metricsBody)
	}
	if len(metrics.Pipeline) == 0 || string(metrics.Pipeline) == "null" {
		t.Error("metrics carries no pipeline section")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case rc := <-exit:
		if rc != 0 {
			t.Fatalf("daemon exited %d\nstderr: %s", rc, stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM\nstdout: %s", stdout)
	}
	if out := stdout.String(); !strings.Contains(out, "drained") {
		t.Errorf("shutdown did not report a drain:\n%s", out)
	}
}

// TestFlagErrors pins the CLI contract for bad invocations.
func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if rc := run([]string{"-nope"}, &out, &out); rc != 2 {
		t.Errorf("unknown flag: exit %d, want 2", rc)
	}
	if rc := run([]string{"stray-arg"}, &out, &out); rc != 2 {
		t.Errorf("positional arg: exit %d, want 2", rc)
	}
	if rc := run([]string{"-addr", "256.0.0.1:99999"}, &out, &out); rc != 1 {
		t.Errorf("bad listen address: exit %d, want 1", rc)
	}
}

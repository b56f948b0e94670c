package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gatewords"
	"gatewords/internal/service"
)

// The serve workload is an open loop at a constant rate, the way wrk2 and
// vegeta generate load: arrivals are evenly spaced, from one client over at
// most two connections, against an in-process service.Server (default
// config, so one worker on the run's one processor; journal on) behind its
// HTTP handler on a loopback listener. The costliest job, a fresh
// b14a-class design, takes about half the 250 ms spacing, so a job waits
// for another only when the service runs at half its speed. Under random
// (Poisson) arrivals how often jobs overlapped, and with it both
// percentiles, would follow the seed.
//
// The serve run holds the Go runtime to one processor, so the client, the
// HTTP handlers, the worker and the garbage collector take turns on it. In
// interleaved runs on a shared 2-vCPU host its latency percentiles were
// steadier that way than on two processors; the closed-loop workloads were
// steadier on the default two.
const (
	serveRate = 4.0 // arrivals per second
	// serveLatencyLimit is the per-job latency limit: a job answered later,
	// refused or failed is not ok.
	serveLatencyLimit = time.Second
	// A resubmission repeats one of the serveRecent most recent distinct
	// designs of its size class submitted at least serveLag earlier, so it
	// hits the result cache instead of coalescing onto a running job.
	serveLag    = time.Second
	serveRecent = 128
	// Warm-up designs are served, journaled and replayed before the window.
	serveWarmBig, serveWarmSmall = 2, 6
	serveRestarts                = 9
)

// jobKind is a submission class of the serve mix.
type jobKind int

const (
	freshSmall jobKind = iota // a new 0.1–1k-gate design
	freshBig                  // a new b14a-class design (~9.4k gates)
	resubSmall                // an exact resubmission of a small design
	resubBig                  // an exact resubmission of a big design
)

// serveMix is the fixed composition of every schedule; the seed only
// orders it and picks the designs. Sorted by cost the classes are small hits
// and misses (0–20%), big hits (20–65%) and big misses (65–100%), so p50
// sits two thirds into the big-hit cluster (parse and fingerprint of a
// ~0.5 MB submission) and p90 two thirds into the big-miss cluster on every
// seed, instead of near the edge of a cost cluster.
var serveMix = []struct {
	kind  jobKind
	share float64
}{{freshSmall, 0.10}, {freshBig, 0.35}, {resubSmall, 0.10}, {resubBig, 0.45}}

// smallProfiles are the Table-1 analogs below 1k gates.
var smallProfiles = []string{"b03a", "b04a", "b05a", "b07a", "b08a", "b11a", "b12a", "b13a"}

type serveJob struct {
	at     time.Duration // scheduled send, from the window's start
	design int
}

// serveSchedule builds the run's designs and arrival schedule from the
// seed: n arrivals evenly spaced over the window, kinds shuffled from the
// fixed mix.
func serveSchedule(seed int64, seconds float64) ([]designSpec, []serveJob, int) {
	rng := rand.New(rand.NewSource(seed))
	var specs []designSpec
	var small, big []int // design indices in submission order
	add := func(profile string, isBig bool) int {
		i := len(specs)
		specs = append(specs, designSpec{
			profile: profile,
			name:    fmt.Sprintf("%s_%d", profile, i),
			seed:    deriveSeed(seed, "serve", i),
		})
		if isBig {
			big = append(big, i)
		} else {
			small = append(small, i)
		}
		return i
	}
	for i := 0; i < serveWarmBig; i++ {
		add("b14a", true)
	}
	for i := 0; i < serveWarmSmall; i++ {
		add(smallProfiles[i%len(smallProfiles)], false)
	}
	warm := len(specs)

	n := int(math.Round(serveRate * seconds))
	at := make([]float64, n)
	for i := range at {
		at[i] = (float64(i) + 0.5) / serveRate
	}
	var kinds []jobKind
	for _, m := range serveMix[1:] {
		for k := 0; k < int(math.Round(m.share*float64(n))); k++ {
			kinds = append(kinds, m.kind)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, serveMix[0].kind)
	}
	kinds = kinds[:n]
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	// submitted[i] is when design i was first sent (warm-up designs: before
	// the window).
	submitted := make(map[int]float64)
	for i := 0; i < warm; i++ {
		submitted[i] = math.Inf(-1)
	}
	pick := func(pool []int, now float64) int {
		var cands []int
		for _, d := range pool {
			if submitted[d] <= now-serveLag.Seconds() {
				cands = append(cands, d)
			}
		}
		if len(cands) > serveRecent {
			cands = cands[len(cands)-serveRecent:]
		}
		return cands[rng.Intn(len(cands))]
	}
	jobs := make([]serveJob, n)
	smallNext := serveWarmSmall
	for i, k := range kinds {
		t := at[i]
		var d int
		switch k {
		case freshSmall:
			d = add(smallProfiles[smallNext%len(smallProfiles)], false)
			smallNext++
			submitted[d] = t
		case freshBig:
			d = add("b14a", true)
			submitted[d] = t
		case resubSmall:
			d = pick(small, t)
		case resubBig:
			d = pick(big, t)
		}
		jobs[i] = serveJob{at: time.Duration(t * float64(time.Second)), design: d}
	}
	return specs, jobs, warm
}

// daemon is one start of the service on a loopback listener.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startDaemon starts the service on the journal and waits for /healthz to
// answer 200. It returns the time until then and the time service.New took,
// which is the journal replay.
func startDaemon(journalPath string, client *http.Client) (*daemon, time.Duration, time.Duration, error) {
	t0 := time.Now()
	srv, err := service.New(service.Config{JournalPath: journalPath})
	if err != nil {
		return nil, 0, 0, err
	}
	replay := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, 0, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // draining only; the status decides
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), replay, nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop(client)
			return nil, 0, 0, fmt.Errorf("daemon not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server down, waits for Serve to return, then drains
// and closes the service.
func (d *daemon) stop(client *http.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // on timeout Close below still drains the workers
	<-d.done
	d.srv.Close()
	client.CloseIdleConnections()
}

func (d *daemon) metrics(client *http.Client) (service.MetricsDoc, observerDoc, error) {
	var doc service.MetricsDoc
	var pipe observerDoc
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		return doc, pipe, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, pipe, err
	}
	err = json.Unmarshal(doc.Pipeline, &pipe)
	return doc, pipe, err
}

// jobRecord is what the client saw of one job. Every job records these
// timestamps; a traced run turns them into spans after the window.
type jobRecord struct {
	sched, send, posted, signaled, getStart, done time.Time
	status                                        int
	cached                                        bool
	body                                          []byte // final JobStatus document
	err                                           error
}

func (r *jobRecord) latency() time.Duration { return r.done.Sub(r.sched) }

// submit sends one job and waits for its report: a cache hit returns it in
// the POST reply; otherwise the client waits on the job's Done channel
// (looked up in-process, so latency is not quantised by a poll interval)
// and fetches the report with one GET.
func submit(d *daemon, client *http.Client, body []byte, sched time.Time) (r jobRecord) {
	r.sched = sched
	r.send = time.Now()
	defer func() {
		if r.done.IsZero() {
			r.done = time.Now()
		}
	}()
	resp, err := client.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.posted = time.Now()
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
		return r
	}
	switch resp.StatusCode {
	case http.StatusOK:
		r.cached, r.body, r.done = true, b, r.posted
		return r
	case http.StatusAccepted:
	default:
		r.err = fmt.Errorf("submission refused with %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return r
	}
	var st service.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		r.err = err
		return r
	}
	job, ok := d.srv.Lookup(st.ID)
	if !ok {
		r.err = fmt.Errorf("accepted job %s is unknown to the server", st.ID)
		return r
	}
	select {
	case <-job.Done:
	case <-time.After(time.Minute):
		r.err = fmt.Errorf("job %s not done after a minute", st.ID)
		return r
	}
	r.signaled = time.Now()
	r.getStart = r.signaled
	resp, err = client.Get(d.url + "/v1/jobs/" + st.ID)
	if err != nil {
		r.err = err
		return r
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	if err != nil {
		r.err = err
	} else if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("fetch answered %d", resp.StatusCode)
	}
	return r
}

// served extracts the report of a finished job.
func (r *jobRecord) served() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	var st service.JobStatus
	if err := json.Unmarshal(r.body, &st); err != nil {
		return nil, err
	}
	if st.Status != service.StateDone || len(st.Report) == 0 {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	return st.Report, nil
}

// direct is the reference result of one design: a direct Identify and
// WriteJSON of the same text with the same (default) options.
type direct struct {
	hash        [32]byte
	full, words int
	reduced     int
}

func directResults(ds []design, used []bool) ([]direct, error) {
	out := make([]direct, len(ds))
	for i := range ds {
		if !used[i] {
			continue
		}
		r, err := directResult(&ds[i])
		if err != nil {
			return nil, fmt.Errorf("direct run on %s: %w", ds[i].name, err)
		}
		out[i] = r
	}
	return out, nil
}

func directResult(d *design) (direct, error) {
	var r direct
	gd, err := gatewords.ParseVerilogString("request.v", d.src)
	if err != nil {
		return r, err
	}
	rep, err := gatewords.Identify(gd, gatewords.Options{})
	if err != nil {
		return r, err
	}
	var buf bytes.Buffer
	if err := gatewords.WriteJSON(&buf, gd, rep, nil, false, 0); err != nil {
		return r, err
	}
	if r.hash, err = reportHash(buf.Bytes()); err != nil {
		return r, err
	}
	ev := gatewords.Evaluate(gd, rep)
	r.full, r.words = ev.FullyFound, ev.ReferenceWords
	for _, w := range rep.MultiBitWords() {
		if len(w.Assignment) > 0 {
			r.reduced++
		}
	}
	return r, nil
}

func runServe(cfg config) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := &outcome{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
	}
	specs, jobs, warm := serveSchedule(cfg.seed, cfg.seconds)
	designs, genTimes, err := generateAll(specs)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(designs))
	for i := range designs {
		if bodies[i], err = json.Marshal(service.SubmitRequest{Verilog: designs[i].src}); err != nil {
			return nil, err
		}
	}

	dir := filepath.Join(cfg.out, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journalPath := filepath.Join(dir, "journal.wal")
	client := &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	// Warm-up: serve every warm design twice (a miss, then a cache hit) on
	// a fresh journal, then restart the daemon serveRestarts times on that
	// journal. setup_s is the median start-up until /healthz answers 200.
	d, _, _, err := startDaemon(journalPath, client)
	if err != nil {
		return nil, err
	}
	warmRecs := make([]jobRecord, 0, 2*warm)
	for i := 0; i < warm; i++ {
		for rep := 0; rep < 2; rep++ {
			warmRecs = append(warmRecs, submit(d, client, bodies[i], time.Now()))
		}
	}
	d.stop(client)
	var starts, replays []float64
	for r := 0; r < serveRestarts; r++ {
		var up, replay time.Duration
		if d, up, replay, err = startDaemon(journalPath, client); err != nil {
			return nil, err
		}
		starts = append(starts, up.Seconds())
		replays = append(replays, ms(replay))
		if rec := d.srv.Recovery(); rec.Restored != len(warmRecs) {
			out.problem("journal replay restored %d jobs, want %d", rec.Restored, len(warmRecs))
		}
		if r < serveRestarts-1 {
			d.stop(client)
		}
	}
	out.note("set-up: daemon start-up seconds %v (journal replay ms %v)", roundAll(starts, 5), roundAll(replays, 3))
	m0, pipe0, err := d.metrics(client)
	if err != nil {
		d.stop(client)
		return nil, err
	}
	j0, _ := os.Stat(journalPath) // a missing size only leaves journal.kb_per_job at 0

	// The timed window: one goroutine per job, started at its due time.
	runtime.GC()
	recs := make([]jobRecord, len(jobs))
	before := snapshot()
	t0 := before.wall
	var wg sync.WaitGroup
	for i := range jobs {
		due := t0.Add(jobs[i].at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			recs[i] = submit(d, client, bodies[jobs[i].design], due)
		}(i, due)
	}
	wg.Wait()
	after := snapshot()
	m1, pipe1, err := d.metrics(client)
	j1, _ := os.Stat(journalPath) // as j0
	d.stop(client)
	if err != nil {
		return nil, err
	}

	// Checks, outside the window: every served report equals a direct run
	// on the same text, and every cache hit equals its primary's bytes.
	used := make([]bool, len(designs))
	for i := 0; i < warm; i++ {
		used[i] = true
	}
	for _, j := range jobs {
		used[j.design] = true
	}
	refs, err := directResults(designs, used)
	if err != nil {
		return nil, err
	}
	primary := make(map[int][]byte)
	checkReport := func(rep []byte, design int, cached bool) error {
		h, err := reportHash(rep)
		if err != nil {
			return err
		}
		if h != refs[design].hash {
			return fmt.Errorf("served report of %s differs from a direct Identify", designs[design].name)
		}
		var c bytes.Buffer
		if err := json.Compact(&c, rep); err != nil {
			return err
		}
		if p, ok := primary[design]; !ok {
			primary[design] = c.Bytes()
		} else if cached && !bytes.Equal(p, c.Bytes()) {
			return fmt.Errorf("cache hit on %s differs from its primary's report", designs[design].name)
		}
		return nil
	}
	checkJob := func(r *jobRecord, design int) error {
		rep, err := r.served()
		if err != nil {
			return err
		}
		return checkReport(rep, design, r.cached)
	}
	for i := range warmRecs {
		if err := checkJob(&warmRecs[i], i/2); err != nil {
			out.problem("warm-up job %d: %v", i, err)
		}
	}
	n := len(jobs)
	out.attempted = n
	lat := make([]float64, n)
	ok, completed := 0, 0
	var lastDone time.Time
	for i := range recs {
		r := &recs[i]
		lat[i] = ms(r.latency())
		if r.done.After(lastDone) {
			lastDone = r.done
		}
		err := checkJob(r, jobs[i].design)
		if err == nil {
			completed++
		}
		switch {
		case err != nil && r.status != 0 && r.status != http.StatusOK && r.status != http.StatusAccepted:
			// Refused by admission control: not ok, but not a wrong output.
			lat[i] = math.Max(lat[i], cfg.seconds*1e3)
		case err != nil:
			out.problem("job %d: %v", i, err)
			lat[i] = math.Max(lat[i], cfg.seconds*1e3)
		case r.latency() <= serveLatencyLimit:
			ok++
		}
	}
	out.failed = n - ok
	for i := range recs {
		if rep, err := recs[i].served(); err == nil && !recs[i].cached {
			selfTest(out, rep, "bits", func(b []byte) error { return checkReport(b, jobs[i].design, false) })
			break
		}
	}
	if len(out.problems) > 5 {
		out.problems = append(out.problems[:5], fmt.Sprintf("... %d check failures in all", len(out.problems)))
	}
	var u usage
	u.ops = n
	u.add(before, after)

	if !cfg.trace {
		var full, words int
		for i, r := range refs {
			if used[i] && i >= warm {
				full += r.full
				words += r.words
			}
		}
		endToEnd(out, quantile(starts, 0.5), u, lat, float64(completed)/lastDone.Sub(t0).Seconds(),
			after.maxRSSKB, ok, 100*float64(full)/float64(words))
		return out, nil
	}

	// Per-layer figures. Spans are built from the job records; the probes
	// time parse and fingerprint of each submission's text, the work the
	// handler does before its cache lookup.
	l := layers{}
	var submitMS, fetchMS, waitMS, queueMS, reportKB []float64
	var late time.Duration
	for i := range recs {
		r := &recs[i]
		if r.send.Sub(r.sched) > late {
			late = r.send.Sub(r.sched)
		}
		root := tr.interval(i, -1, "op", r.sched, r.done)
		if !r.posted.IsZero() {
			tr.interval(i, root, "http.submit", r.send, r.posted)
			submitMS = append(submitMS, ms(r.posted.Sub(r.send)))
		}
		if !r.signaled.IsZero() {
			tr.interval(i, root, "service.wait", r.posted, r.signaled)
			tr.interval(i, root, "http.fetch", r.getStart, r.done)
			waitMS = append(waitMS, ms(r.signaled.Sub(r.posted)))
			fetchMS = append(fetchMS, ms(r.done.Sub(r.getStart)))
			if rep, err := r.served(); err == nil {
				var doc struct {
					Runtime float64 `json:"runtime_seconds"`
				}
				// The worker can start a job before its 202 reaches the
				// client, so wait − runtime is clamped at zero: the part of
				// the wait the job's own run does not explain.
				if json.Unmarshal(rep, &doc) == nil {
					queueMS = append(queueMS, math.Max(0, ms(r.signaled.Sub(r.posted))-doc.Runtime*1e3))
				}
			}
		}
		if rep, err := r.served(); err == nil {
			var c bytes.Buffer
			if json.Compact(&c, rep) == nil {
				reportKB = append(reportKB, float64(c.Len())/1024)
			}
		}
		probe := tr.start(i, -1, "probe")
		sp := tr.start(i, probe, "verilog.parse")
		gd, err := gatewords.ParseVerilogString("request.v", designs[jobs[i].design].src)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start(i, probe, "netlist.fingerprint")
		gd.Fingerprint()
		tr.end(sp)
		tr.end(probe)
	}
	delta := func(name string) float64 { return float64(pipe1.counter(name) - pipe0.counter(name)) }
	hits := float64(m1.Server.CacheHits - m0.Server.CacheHits)
	misses := float64(m1.Server.CacheMisses - m0.Server.CacheMisses)
	runs := float64(m1.Server.PipelineRuns - m0.Server.PipelineRuns)
	refused := float64(m1.Server.JobsShed - m0.Server.JobsShed + m1.Server.JobsRejected - m0.Server.JobsRejected)
	tr.count(-1, "cache_hits", hits)
	tr.count(-1, "cache_misses", misses)
	tr.count(-1, "pipeline_runs", runs)
	tr.count(-1, "refused", refused)
	tr.count(-1, "trials", delta("trials"))
	tr.count(-1, "reduce_gate_visits", delta("reduce_gate_visits"))
	var reduced float64
	for i := range jobs {
		if d := jobs[i].design; !recs[i].cached && recs[i].err == nil {
			reduced += float64(refs[d].reduced)
		}
	}
	l.spanMetrics(tr, n, "verilog.parse", "netlist.fingerprint")
	for _, s := range coreStages {
		l[s.metric+"_ms"] = (pipe1.stageMS(s.stage) - pipe0.stageMS(s.stage)) / float64(n)
	}
	l["synth.generate_ms"] = mean(genTimes)
	l["core.trials"] = delta("trials") / float64(n)
	l["core.trial_yield"] = ratio(reduced, delta("trials"))
	l["reduce.gate_visits"] = delta("reduce_gate_visits") / float64(n)
	l["reduce.visits_per_trial"] = ratio(delta("reduce_gate_visits"), delta("trials"))
	l["report.kb"] = mean(reportKB)
	l["http.submit_ms"] = mean(submitMS)
	l["http.fetch_ms"] = mean(fetchMS)
	l["service.wait_ms"] = mean(waitMS)
	l["service.queue_wait_ms"] = mean(queueMS)
	l["service.cache_hit_frac"] = hits / float64(n)
	l["service.runs_per_job"] = runs / float64(n)
	l["service.refused"] = refused
	l["journal.replay_ms"] = quantile(replays, 0.5)
	if j0 != nil && j1 != nil {
		l["journal.kb_per_job"] = float64(j1.Size()-j0.Size()) / 1024 / float64(n)
	}
	l.runtimeMetrics(u)
	l["loadgen.late_ms_max"] = ms(late)
	// The traced window is the untraced one: every job records the same
	// timestamps either way and spans are built after the window, so the
	// tracing overhead is zero by construction.
	l["trace.overhead_frac"] = 0
	l.emit(out)
	out.note("serve: %d jobs, %d hits, %d misses, %d pipeline runs, %d refused", n, int(hits), int(misses), int(runs), int(refused))
	return out, nil
}

// Command wordidd serves the word-identification pipeline as an HTTP/JSON
// daemon: clients POST a gate-level Verilog netlist (or the name of a
// generated benchmark profile) and poll for the finished report, while the
// daemon runs jobs on a bounded worker pool with per-job deadlines and a
// result cache keyed on the exact request.
//
// Usage:
//
//	wordidd [flags]
//
// Flags:
//
//	-addr HOST:PORT     listen address (default 127.0.0.1:8080; port 0 picks one)
//	-workers N          concurrent identification jobs (default GOMAXPROCS)
//	-queue N            queued jobs beyond the running ones (default 64)
//	-cache N            cached reports, LRU (default 256; negative disables)
//	-default-timeout D  per-job deadline when the request sets none (default 0 = none)
//	-max-timeout D      ceiling clamped onto every per-job deadline (default 0 = none)
//	-max-body N         submission body size cap in bytes (default 32 MiB)
//	-shed-gates N       refuse designs above N gates while the queue is half full (0 = off)
//	-quarantine N       consecutive failures that quarantine an input (default 3; -1 = off)
//	-quarantine-ttl D   quarantine duration before a half-open probe (default 1m)
//	-journal PATH       append job lifecycle to a checksummed WAL, replayed on start
//	-resume             re-enqueue journal-queued jobs on start instead of failing them
//	-faults SPEC        arm deterministic fault injection (guard.PlantSpec; testing only)
//
// API:
//
//	POST /v1/jobs          submit {"verilog": ...} or {"bench": "b08a"}; 202, or 200 on cache hit
//	GET  /v1/jobs          list jobs in submission order
//	GET  /v1/jobs/{id}     poll; the report rides along once status is "done"
//	GET  /metrics          server counters + merged per-stage pipeline observability
//	GET  /healthz          200 while serving, 503 {"state":"draining"} during shutdown
//
// Overloaded submissions are refused with 429 plus a Retry-After estimate
// (deadline-infeasible or shed-heavy jobs) or 503 (queue full); quarantined
// inputs are refused with a structured 422 describing the prior failures.
// SIGINT/SIGTERM drain in-flight jobs before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gatewords/internal/guard"
	"gatewords/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wordidd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent identification jobs (default GOMAXPROCS)")
	queue := fs.Int("queue", 0, "queued jobs beyond the running ones (default 64)")
	cache := fs.Int("cache", 0, "cached reports, LRU (default 256; negative disables)")
	defaultTimeout := fs.Duration("default-timeout", 0, "per-job deadline when the request sets none (0 = none)")
	maxTimeout := fs.Duration("max-timeout", 0, "ceiling clamped onto every per-job deadline (0 = none)")
	maxBody := fs.Int64("max-body", 0, "submission body size cap in bytes (default 32 MiB)")
	shedGates := fs.Int("shed-gates", 0, "refuse designs above N gates while the queue is half full (0 = off)")
	quarantine := fs.Int("quarantine", 0, "consecutive failures that quarantine an input (default 3; negative disables)")
	quarantineTTL := fs.Duration("quarantine-ttl", 0, "quarantine duration before a half-open probe (default 1m)")
	journalPath := fs.String("journal", "", "append job lifecycle to a checksummed WAL at this path, replayed on start")
	resume := fs.Bool("resume", false, "re-enqueue journal-queued jobs on start instead of failing them")
	faults := fs.String("faults", "", "arm deterministic fault injection, e.g. \"job:b06a*3\" (testing only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: wordidd [flags]")
		fs.PrintDefaults()
		return 2
	}
	if *faults != "" {
		if err := guard.PlantSpec(*faults); err != nil {
			fmt.Fprintf(stderr, "wordidd: %v\n", err)
			return 2
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "wordidd: %v\n", err)
		return 1
	}

	svc, err := service.New(service.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheEntries:       *cache,
		DefaultTimeout:     *defaultTimeout,
		MaxTimeout:         *maxTimeout,
		MaxRequestBytes:    *maxBody,
		ShedGates:          *shedGates,
		QuarantineFailures: *quarantine,
		QuarantineTTL:      *quarantineTTL,
		JournalPath:        *journalPath,
		Resume:             *resume,
	})
	if err != nil {
		ln.Close()
		fmt.Fprintf(stderr, "wordidd: %v\n", err)
		return 1
	}
	if rec := svc.Recovery(); rec.Journaled {
		fmt.Fprintf(stdout, "wordidd: journal replayed: %d restored, %d resumed, %d interrupted, %d torn\n",
			rec.Restored, rec.Resumed, rec.Interrupted, rec.TornRecords)
	}

	// The slow-client timeouts are deliberately tight on the read side — a
	// submission is one JSON document, not a stream — while writes get room
	// for large report payloads. Idle keep-alives are bounded so a
	// connection-hoarding client cannot exhaust the listener.
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stdout, "wordidd: listening on http://%s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Serve never returns nil; anything here is a real listener failure.
		svc.Close()
		fmt.Fprintf(stderr, "wordidd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain

	// Drain in three steps: flip /healthz to draining and refuse new
	// submissions first, then finish the backlog (polls still served, so
	// clients can collect results), then stop the listener.
	fmt.Fprintln(stdout, "wordidd: shutting down")
	svc.StartDraining()
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "wordidd: shutdown: %v\n", err)
	}
	<-serveErr // Serve has returned http.ErrServerClosed by now
	fmt.Fprintln(stdout, "wordidd: drained")
	return 0
}

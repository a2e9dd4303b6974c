// Command bgr-serve runs the global router as a long-lived HTTP service:
// clients POST circuits, poll or stream job status, and fetch results as
// routedb JSON, timing reports or SVG. HTTP is its only transport. With
// -journal it persists job transitions and results to an append-only
// journal replayed at startup. See docs/SERVICE.md for the API.
//
// Usage:
//
//	bgr-serve -addr 127.0.0.1:8080 -workers 4
//	bgr-serve -queue 128 -cache 64 -job-timeout 2m
//	bgr-serve -journal jobs.journal
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/service"

	// Register every routing engine: jobs select one with the "engine"
	// config field (docs/SERVICE.md). The concurrent default comes in
	// with package service itself.
	_ "repro/internal/seqroute"
	_ "repro/internal/steiner"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers     = flag.Int("workers", 2, "routing worker pool size")
		queue       = flag.Int("queue", 64, "job queue depth")
		cache       = flag.Int("cache", 32, "result cache entries (negative disables)")
		jobTimeout  = flag.Duration("job-timeout", 5*time.Minute, "per-job routing deadline")
		drain       = flag.Duration("drain", time.Minute, "shutdown grace period for queued jobs")
		jobTTL      = flag.Duration("job-ttl", 15*time.Minute, "how long finished jobs stay addressable (negative keeps forever)")
		maxJobs     = flag.Int("max-jobs", 1024, "max retained terminal jobs, oldest evicted first (negative unlimited)")
		maxBody     = flag.Int64("max-body", 8<<20, "POST /jobs body cap, bytes (413 on overflow; negative unlimited)")
		maxCircuit  = flag.Int("max-circuit", 4<<20, "circuit text cap, bytes (negative unlimited)")
		maxNets     = flag.Int("max-nets", 50000, "per-circuit net cap (negative unlimited)")
		maxCells    = flag.Int("max-cells", 200000, "per-circuit cell cap (negative unlimited)")
		enablePprof = flag.Bool("pprof", true, "expose net/http/pprof under /debug/pprof/")
		journalPath = flag.String("journal", "", "append job journal to this file and replay it at startup (empty disables)")
		journalSync = flag.String("journal-sync", "always", "journal fsync policy: always|none")
	)
	flag.Parse()

	syncPolicy, err := journal.ParsePolicy(*journalSync)
	if err != nil {
		fatal(err)
	}
	svc, err := service.Open(service.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cache,
		JobTimeout:      *jobTimeout,
		TerminalTTL:     *jobTTL,
		MaxTerminalJobs: *maxJobs,
		MaxBodyBytes:    *maxBody,
		MaxCircuitBytes: *maxCircuit,
		MaxNets:         *maxNets,
		MaxCells:        *maxCells,
		JournalPath:     *journalPath,
		JournalSync:     syncPolicy,
	})
	if err != nil {
		fatal(err)
	}
	handler := svc.Handler()
	if *enablePprof {
		// Mount the profiling endpoints next to the API so a running
		// service can be profiled in place:
		//   go tool pprof http://ADDR/debug/pprof/profile?seconds=10
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	// No WriteTimeout: SSE streams (/jobs/{id}/events) legitimately stay
	// open for the whole job; slow writers are bounded by IdleTimeout
	// and the per-job deadline instead.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("bgr-serve: listening on http://%s/ (workers=%d queue=%d cache=%d)\n",
		*addr, *workers, *queue, *cache)
	fmt.Printf("bgr-serve: engines: %s (default %s)\n",
		strings.Join(engine.Names(), ", "), engine.DefaultName)

	if *journalPath != "" {
		fmt.Printf("bgr-serve: journaling jobs to %s (sync=%s)\n", *journalPath, *journalSync)
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("bgr-serve: shutting down, draining queue...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bgr-serve: http shutdown:", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bgr-serve: queue drain:", err)
		os.Exit(1)
	}
	fmt.Println("bgr-serve: done")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgr-serve:", err)
	os.Exit(1)
}

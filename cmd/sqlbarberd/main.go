// Command sqlbarberd is the SQLBarber job service: a long-running daemon
// that accepts workload-generation requests over HTTP/JSON, runs them
// asynchronously on a bounded worker pool, and serves job status, SSE
// progress streams, and completed workload artifacts.
//
// Usage:
//
//	sqlbarberd -addr 127.0.0.1:8080 -workers 4 -queue 32 -artifacts ./artifacts
//
//	curl -X POST localhost:8080/api/v1/jobs -d '{"dataset":"tpch","queries":200}'
//	curl localhost:8080/api/v1/jobs/job-000001
//	curl localhost:8080/api/v1/jobs/job-000001/result
//
// On SIGTERM (or SIGINT) the daemon drains: new submits are rejected with
// 503, queued and in-flight jobs run to completion (bounded by
// -drain-timeout, after which they are cancelled and their partial results
// checkpointed), and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/llm/resilience"
	"sqlbarber/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 2, "worker pool size (concurrent jobs)")
		queueDepth   = flag.Int("queue", 16, "queued-job cap; submits beyond it get 429 with Retry-After")
		artifacts    = flag.String("artifacts", "artifacts", "directory for completed workload artifacts")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long SIGTERM drain waits before cancelling remaining jobs")
		llmURL       = flag.String("llm-url", "", "OpenAI-compatible endpoint; when set, a hosted model replaces the built-in simulated LLM")
		llmModel     = flag.String("llm-model", "o3-mini", "chat model name for -llm-url")
	)
	flag.Parse()

	opts := server.Options{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		ArtifactDir: *artifacts,
	}
	if *llmURL != "" {
		url, model := *llmURL, *llmModel
		// The HTTP oracle sends one request per call; each job's oracle
		// retries transient failures up to 3 attempts, under any retry
		// policy the job itself carries.
		opts.Oracle = func(seed int64) llm.Oracle {
			h := llm.NewHTTPOracle(url,
				llm.WithAPIKey(os.Getenv("OPENAI_API_KEY")),
				llm.WithModel(model))
			return llm.Chain(h, resilience.NewRetry(llm.RetryPolicy{MaxAttempts: 3}, nil, seed))
		}
	}

	// The pool root deliberately outlives the signal context: SIGTERM must
	// trigger a drain (jobs finish), not an abort (jobs cancelled). Only the
	// drain timeout cancels jobs, through manager.Drain's forced path.
	rootCtx := context.Background()
	srv, err := server.New(rootCtx, opts)
	if err != nil {
		fatal("starting service: %v", err)
	}

	// Install the signal handler before announcing readiness: once the
	// "listening on" banner is out, a SIGTERM must drain — never hit the
	// default disposition and kill accepted work.
	sigCtx, stop := signal.NotifyContext(rootCtx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listening on %s: %v", *addr, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "sqlbarberd: listening on %s (workers=%d queue=%d artifacts=%s)\n",
		ln.Addr(), *workers, *queueDepth, *artifacts)

	select {
	case err := <-errCh:
		fatal("serving: %v", err)
	case <-sigCtx.Done():
	}
	stop()

	fmt.Fprintf(os.Stderr, "sqlbarberd: draining (timeout %s); rejecting new jobs, finishing accepted ones\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(rootCtx, *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "sqlbarberd: drain timed out; remaining jobs cancelled with partial results checkpointed (%v)\n", err)
	}
	sctx, scancel := context.WithTimeout(rootCtx, 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "sqlbarberd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "sqlbarberd: drained; exiting")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlbarberd: "+format+"\n", args...)
	os.Exit(1)
}

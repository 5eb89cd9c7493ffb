package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/storage"
	"sqlbarber/internal/workload"
)

// Options configures a Server. Zero values select sensible defaults; only
// ArtifactDir is required.
type Options struct {
	// Workers is the bounded pool size (default 2). Each worker runs one
	// job's pipeline at a time; a job's own -parallel setting shards work
	// inside that run.
	Workers int
	// QueueDepth caps jobs waiting for a worker (default 16). A submit
	// beyond running+queued capacity is rejected with 429 and Retry-After.
	QueueDepth int
	// ArtifactDir is where completed (and partial) workload artifacts are
	// stored atomically. Required.
	ArtifactDir string
	// Oracle builds the per-job LLM oracle from the job's seed. Defaults to
	// the deterministic simulated oracle, which keeps artifacts a pure
	// function of the request.
	Oracle func(seed int64) llm.Oracle
	// ResilienceClock, when set, is injected into every job resilience
	// policy that does not carry its own clock — tests pass llm.NewFakeClock
	// so retry backoffs cost no wall time.
	ResilienceClock llm.Clock
	// Clock is the server's time source (default time.Now).
	Clock func() time.Time
	// RetryAfter is the hint returned on 429/503 responses (default 1s).
	RetryAfter time.Duration
}

// Server is the sqlbarberd job service: HTTP handlers in front of a bounded
// worker pool, an atomic artifact store, and an obs Collector holding the
// server_* metrics.
type Server struct {
	opts  Options
	mgr   *manager
	store *storage.ArtifactStore
	col   *obs.Collector
	mux   *http.ServeMux
}

// New builds the service and starts its worker pool. ctx is the pool's root
// context: jobs run under children of it, so cancelling it aborts in-flight
// work (Drain is the graceful path and should be preferred).
func New(ctx context.Context, opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Oracle == nil {
		opts.Oracle = func(seed int64) llm.Oracle {
			return llm.NewSim(llm.SimOptions{Seed: seed})
		}
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	store, err := storage.OpenArtifactStore(opts.ArtifactDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		store: store,
		col:   obs.NewCollector(obs.WithClock(opts.Clock)),
	}
	s.col.MarkVolatileHistogram(obs.HServerQueueWaitMS)
	s.mgr = newManager(ctx, opts.Workers, opts.QueueDepth, opts.Clock, s.col, s.runJob)
	s.mgr.bindCounters(s.col)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Collector exposes the server metrics registry (server_* counters and the
// queue-wait histogram).
func (s *Server) Collector() *obs.Collector { return s.col }

// Drain stops admission and waits for accepted jobs to finish; see
// manager.Drain for the timeout semantics.
func (s *Server) Drain(ctx context.Context) error { return s.mgr.Drain(ctx) }

// runJob executes one job end to end: open the dataset, build the pipeline
// from the normalized request, run it under the worker's context, store the
// workload artifact atomically, and finalize the job. Cancellation surfaces
// as a partial Result — the artifact still gets written, so a cancelled job's
// result download returns the partial workload.
func (s *Server) runJob(ctx context.Context, j *Job) {
	req := j.Req
	var db *engine.DB
	switch req.Dataset {
	case "imdb":
		db = engine.OpenIMDB(req.Seed, req.ScaleFactor)
	default:
		db = engine.OpenTPCH(req.Seed, req.ScaleFactor)
	}
	target := req.target()
	sink := obs.OnEvent(obs.Nop, func(e obs.Event) {
		if e.Kind == obs.KindProgress {
			j.publish("progress", map[string]any{
				"distance":   e.Value,
				"elapsed_ms": e.Dur.Milliseconds(),
			})
		}
	})
	popts := []pipeline.Option{
		pipeline.WithSeed(req.Seed),
		pipeline.WithParallel(req.Parallel),
		pipeline.WithCostKind(req.kind),
		pipeline.WithObs(sink),
	}
	if req.ProfileFraction > 0 {
		popts = append(popts, pipeline.WithProfileFraction(req.ProfileFraction))
	}
	if req.policy != nil {
		policy := *req.policy
		if policy.Clock == nil {
			policy.Clock = s.opts.ResilienceClock
		}
		popts = append(popts, pipeline.WithResilience(policy))
	}
	p, err := pipeline.New(db, s.opts.Oracle(req.Seed), req.specs, target, popts...)
	if err != nil {
		j.finishFailed("building pipeline: " + err.Error())
		return
	}
	res, err := p.Run(ctx)
	if err != nil {
		j.finishFailed("generation failed: " + err.Error())
		return
	}
	name := req.artifactName(j.ID)
	err = s.store.Put(name, func(w io.Writer) error {
		if req.Format == "json" {
			return workload.NewManifest(req.kind.String(), target, res.Workload).WriteJSON(w)
		}
		return workload.WriteSQL(w, req.kind.String(), res.Workload)
	})
	if err != nil {
		j.finishFailed("storing artifact: " + err.Error())
		return
	}
	j.setArtifact(name, req.contentType())
	sum := jobSummary{
		queries:        len(res.Workload),
		templates:      len(res.Templates),
		distance:       res.Distance,
		dbCalls:        res.DBCalls,
		elapsedMS:      res.Elapsed.Milliseconds(),
		partial:        res.Partial,
		cancelledStage: res.CancelledStage,
	}
	if res.Partial {
		j.finishCancelled(sum)
	} else {
		j.finishDone(sum)
	}
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	secs := int(s.opts.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.retryAfterHeader(w)
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		s.retryAfterHeader(w)
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.mgr.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.mgr.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	name, contentType := j.artifactInfo()
	if name == "" {
		st := j.Snapshot()
		if st.State == string(StateFailed) {
			writeError(w, http.StatusConflict, "job failed: "+st.Error)
			return
		}
		writeError(w, http.StatusConflict, "job is "+st.State+"; no artifact yet")
		return
	}
	f, err := s.store.Open(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", contentType)
	io.Copy(w, f)
}

// handleEvents streams the job's event history and live tail as SSE. The
// stream ends after the terminal "done" event (or when the client goes
// away). History replay plus the exactly-once hand-off in Job.subscribe
// means a late subscriber still sees the full progress trajectory.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.mgr.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	replay, ch, unsub := j.subscribe()
	defer unsub()
	writeEv := func(ev jobEvent) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, ev.Data)
		fl.Flush()
	}
	for _, ev := range replay {
		writeEv(ev)
		if ev.Name == "done" {
			return
		}
	}
	for {
		select {
		case ev := <-ch:
			writeEv(ev)
			if ev.Name == "done" {
				return
			}
		case <-j.Done():
			// Drain whatever the publisher buffered before closing done.
			for {
				select {
				case ev := <-ch:
					writeEv(ev)
					if ev.Name == "done" {
						return
					}
				default:
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.mgr.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"jobs":    s.mgr.submitted.Load(),
		"active":  s.mgr.active.Load(),
		"workers": s.opts.Workers,
		"queue":   s.opts.QueueDepth,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.col.WritePrometheus(w)
}

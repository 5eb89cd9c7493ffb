package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/server"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// daemonClients is the number of closed-loop clients, and the daemon's
// worker count: two jobs contend for the two cores the load is sized for.
const daemonClients = 2

// oracleRegistry hands the daemon a bench oracle per job and keeps it, keyed
// by the job seed, so the client can read the job's LLM spend afterwards.
type oracleRegistry struct {
	mu     sync.Mutex
	bySeed map[int64]*benchOracle
}

func (r *oracleRegistry) oracle(seed int64) llm.Oracle {
	o := newBenchOracle(seed, latency{}, &callLog{})
	r.mu.Lock()
	r.bySeed[seed] = o
	r.mu.Unlock()
	return o
}

// take removes and returns the oracle of the job with this seed.
func (r *oracleRegistry) take(seed int64) *benchOracle {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.bySeed[seed]
	delete(r.bySeed, seed)
	return o
}

// daemon is one in-process sqlbarberd behind an httptest server.
type daemon struct {
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
	cancel context.CancelFunc
	dir    string
	reg    *oracleRegistry
}

func startDaemon(ctx context.Context, workDir string, reg *oracleRegistry) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "daemon-*")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	srv, err := server.New(ctx, server.Options{Workers: daemonClients, ArtifactDir: dir, Oracle: reg.oracle})
	if err != nil {
		cancel()
		os.RemoveAll(dir)
		return nil, err
	}
	return &daemon{
		srv:    srv,
		hs:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}},
		cancel: cancel,
		dir:    dir,
		reg:    reg,
	}, nil
}

// close drains the daemon's jobs, stops its worker pool and HTTP server,
// and removes its artifacts.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: draining daemon: %v\n", err)
	}
	d.cancel()
	d.hs.Close()
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// daemonRequest is the daemon job with this seed: even seeds are TPC-H
// plan-cost jobs with a Redset target and a JSON artifact, odd seeds IMDB
// cardinality jobs with a Snowset target and a SQL artifact. It also returns
// the cost kind and target the daemon derives from the request, to replay
// the same job through the pipeline.
func daemonRequest(seed int64, sh shape) (server.JobRequest, workloadDef, *stats.TargetDistribution) {
	req := server.JobRequest{
		ScaleFactor: sh.sf,
		Seed:        seed,
		Queries:     sh.queries,
		Intervals:   sh.intervals,
		RangeHi:     sh.rangeHi,
	}
	if seed%2 == 0 {
		req.Dataset, req.CostKind, req.Distribution, req.Format = "tpch", "plancost", "redset", "json"
		return req, workloadDef{dataset: req.Dataset, kind: engine.PlanCost, parallel: 1},
			realworld.RedsetCost(0, sh.rangeHi, sh.intervals, sh.queries)
	}
	req.Dataset, req.CostKind, req.Distribution, req.Format = "imdb", "cardinality", "snowset-card", "sql"
	return req, workloadDef{dataset: req.Dataset, kind: engine.Cardinality, parallel: 1},
		realworld.SnowsetCardinality(1, 0, sh.rangeHi, sh.intervals, sh.queries)
}

// daemonJob is one client round trip: POST the job, follow its SSE stream
// to the terminal event, GET the artifact.
type daemonJob struct {
	// wait runs from the submit's answer to the terminal event.
	wall, submit, wait, result time.Duration
	status                     server.JobStatus
	artifact                   []byte
	llmCalls, llmTokens        int64
	why                        string
}

// run drives one job through the HTTP API and checks what came back: the
// submit must be accepted (202), the stream and result must answer 200, the
// job must end "done", and the artifact must hold the requested number of
// queries.
func (d *daemon) run(ctx context.Context, req server.JobRequest) daemonJob {
	var j daemonJob
	t0 := time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		j.why = err.Error()
		return j
	}
	var id struct{ ID string }
	if j.why = d.call(ctx, http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&id)
	}); j.why != "" {
		return j
	}
	j.submit = time.Since(t0)
	t1 := time.Now()
	if j.why = d.call(ctx, http.MethodGet, "/api/v1/jobs/"+id.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		return readDone(r, &j.status)
	}); j.why != "" {
		return j
	}
	j.wait = time.Since(t1)
	t2 := time.Now()
	if j.why = d.call(ctx, http.MethodGet, "/api/v1/jobs/"+id.ID+"/result", nil, http.StatusOK, func(r io.Reader) error {
		j.artifact, err = io.ReadAll(r)
		return err
	}); j.why != "" {
		return j
	}
	j.result = time.Since(t2)
	j.wall = time.Since(t0)
	if o := d.reg.take(req.Seed); o != nil {
		j.llmCalls, j.llmTokens = o.Ledger().Calls(), o.Ledger().TotalTokens()
	}
	j.why = checkArtifact(req, j.status, j.artifact)
	return j
}

// call makes one request, requires the wanted status code, and hands the
// body to read. It returns why the exchange failed ("" when it did not).
func (d *daemon) call(ctx context.Context, method, path string, body []byte, want int, read func(io.Reader) error) string {
	req, err := http.NewRequestWithContext(ctx, method, d.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return err.Error()
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Sprintf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(msg)))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Sprintf("%s %s: %v", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return fmt.Sprintf("%s %s: %v", method, path, err)
	}
	return ""
}

// readDone reads an SSE stream up to the job's terminal "done" event and
// decodes its status.
func readDone(r io.Reader, st *server.JobStatus) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			return json.Unmarshal([]byte(data), st)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without a done event")
}

// checkArtifact returns why a finished daemon job is wrong ("" when it is
// right).
func checkArtifact(req server.JobRequest, st server.JobStatus, artifact []byte) string {
	if st.State != string(server.StateDone) {
		return fmt.Sprintf("job ended %q: %s", st.State, st.Error)
	}
	var n int
	if req.Format == "json" {
		m, err := workload.ReadJSON(bytes.NewReader(artifact))
		if err != nil {
			return err.Error()
		}
		n = len(m.Queries)
	} else {
		qs, err := workload.ReadSQL(bytes.NewReader(artifact))
		if err != nil {
			return err.Error()
		}
		n = len(qs)
	}
	if n != req.Queries {
		return fmt.Sprintf("artifact holds %d queries, requested %d", n, req.Queries)
	}
	return ""
}

// runDaemon measures the daemon workload: set up (daemon plus one warm-up
// job of each kind, several times), then run the job list with two
// closed-loop clients.
func runDaemon(ctx context.Context, w workloadDef, o runOpts, rep *report) error {
	sh := w.shape(o.small)
	reg := &oracleRegistry{bySeed: map[int64]*benchOracle{}}
	var d *daemon
	var setups []float64
	for k := 0; k < o.setups; k++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, o.workDir, reg); err != nil {
			return err
		}
		warm := make([]daemonJob, daemonClients)
		var wg sync.WaitGroup
		for c := range warm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, _, _ := daemonRequest(warmSeed-int64(c), sh)
				warm[c] = d.run(ctx, req)
			}()
		}
		wg.Wait()
		for _, j := range warm {
			if j.why != "" {
				d.close()
				return fmt.Errorf("warm-up job: %s", j.why)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	rep.set("setup_s", quantile(setups, 0.5), len(setups))

	seeds := w.jobList(o.seed, o.jobs)
	jobs := make([]daemonJob, len(seeds))
	var next atomic.Int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seeds) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				req, _, _ := daemonRequest(seeds[i], sh)
				jobs[i] = d.run(ctx, req)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	var lats []float64
	var queries, evals, llmCalls, llmTokens int64
	var distance float64
	for i, j := range jobs {
		rep.attempted++
		if j.why != "" {
			rep.fail(i, seeds[i], j.why)
			continue
		}
		h := fnv.New64a()
		h.Write(j.artifact)
		rep.hash = combineHash(rep.hash, h.Sum64())
		lats = append(lats, j.wall.Seconds())
		queries += int64(j.status.Queries)
		evals += j.status.DBCalls
		llmCalls += j.llmCalls
		llmTokens += j.llmTokens
		distance += j.status.Distance
	}
	n := len(jobs)
	rep.set("job_s_mean", wall.Seconds()/float64(n), n)
	rep.set("job_s_p50", quantile(lats, 0.5), len(lats))
	rep.set("job_s_p90", quantile(lats, 0.9), len(lats))
	rep.set("queries_per_s", float64(queries)/wall.Seconds(), n)
	rep.set("cpu_s_per_job", cpu.Seconds()/float64(n), n)
	rep.set("alloc_mb_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/float64(n), n)
	if ok := len(lats); ok > 0 {
		rep.set("dbms_evals_per_job", float64(evals)/float64(ok), ok)
		rep.set("llm_calls_per_job", float64(llmCalls)/float64(ok), ok)
		rep.set("llm_tokens_per_job", float64(llmTokens)/float64(ok), ok)
		rep.set("distance_mean", distance/float64(ok), ok)
	}
	if o.trace {
		return traceDaemon(ctx, w, o, sh, rep, seeds, jobs)
	}
	return nil
}

// daemonReplays bounds how many finished jobs traceDaemon replays.
const daemonReplays = 8

// traceDaemon builds the daemon workload's per-layer ledger. The daemon runs
// each job with its own obs sink, so after the measured window the first few
// jobs are replayed as batch jobs through the pipeline, each on a dataset
// generated from its own seed as the daemon does: the same requests, so the
// same workloads. The server rows of the table come from the window's
// client-side timings.
func traceDaemon(ctx context.Context, w workloadDef, o runOpts, sh shape, rep *report, seeds []int64, jobs []daemonJob) error {
	t, err := newTracer(w, o)
	if err != nil {
		return err
	}
	defer t.close()
	var submit, wait, result, datagen, pipe []float64
	for _, j := range jobs {
		if j.why == "" {
			submit = append(submit, ms(j.submit))
			wait = append(wait, ms(j.wait))
			result = append(result, ms(j.result))
		}
	}
	for i, seed := range seeds[:min(len(seeds), daemonReplays)] {
		if jobs[i].why != "" {
			continue
		}
		req, jw, target := daemonRequest(seed, sh)
		t0 := time.Now()
		db := openDataset(req.Dataset, req.Seed, req.ScaleFactor)
		datagen = append(datagen, ms(time.Since(t0)))
		t.l.add("datagen.open_ms", datagen[len(datagen)-1])
		j, err := runBatchJob(ctx, db, jw, target, seed, latency{}, nil)
		if err != nil {
			rep.fail(i, seed, "pipeline replay: "+err.Error())
			continue
		}
		pipe = append(pipe, ms(j.wall))
		why, recost := checkBatch(ctx, db, jw.kind, target, j.res)
		if why == "" {
			if why, err = t.job(ctx, db, jw, target, i, seed, j, recost); err != nil {
				return err
			}
		}
		if why != "" {
			rep.fail(i, seed, "pipeline replay: "+why)
		}
	}
	t.finish(rep)
	if len(submit) == 0 || len(pipe) == 0 {
		return nil
	}
	rep.set("server.submit_ms_p50", quantile(submit, 0.5), len(submit))
	rep.set("server.result_ms_p50", quantile(result, 0.5), len(result))
	rep.jobMS = mean(submit) + mean(wait) + mean(result)
	rep.table = append(rep.table,
		tableRow{"datagen: each job's dataset (replayed)", mean(datagen)},
		tableRow{"server: rest of submit to done (queue, events, artifact, contention)", mean(wait) - mean(datagen) - mean(pipe)},
		tableRow{"server: submit round trip", mean(submit)},
		tableRow{"server: result download", mean(result)})
	rep.notes = append(rep.notes, fmt.Sprintf("pipeline rows are %d jobs replayed alone; the job is the clients' mean latency over %d jobs", len(pipe), len(submit)))
	return nil
}

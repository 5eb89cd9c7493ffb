package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// dbCounters is a reading of the engine's evaluation counters.
type dbCounters struct {
	explain, exec, validate, sessionProbes, cacheHits, cacheMisses int64
}

func readDB(db *engine.DB) dbCounters {
	return dbCounters{db.ExplainCalls(), db.ExecCalls(), db.ValidateCalls(), db.SessionProbes(), db.PlanCacheHits(), db.PlanCacheMisses()}
}

func (a dbCounters) sub(b dbCounters) dbCounters {
	return dbCounters{a.explain - b.explain, a.exec - b.exec, a.validate - b.validate,
		a.sessionProbes - b.sessionProbes, a.cacheHits - b.cacheHits, a.cacheMisses - b.cacheMisses}
}

// gcReading samples the runtime's cumulative GC and total CPU estimates and
// GC cycle count.
type gcReading struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcReading{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// batchJob is one pipeline run and what it cost. Only the Run call is
// timed; building the pipeline and reading counters are not.
type batchJob struct {
	res         *pipeline.Result
	wall, cpu   time.Duration
	alloc       uint64
	db          dbCounters
	gc0, gc1    gcReading
	llmCalls    int64
	llmTokens   int64
	oracleCalls *callLog
}

// runBatchJob runs one generation job through pipeline.New(...).Run against
// db, with its own simulated LLM seeded by the job seed. col, when non-nil,
// observes the run.
func runBatchJob(ctx context.Context, db *engine.DB, w workloadDef, target *stats.TargetDistribution, seed int64, lat latency, col *obs.Collector) (*batchJob, error) {
	log := &callLog{}
	oracle := newBenchOracle(seed, lat, log)
	opts := []pipeline.Option{
		pipeline.WithSeed(seed),
		pipeline.WithParallel(w.parallel),
		pipeline.WithCostKind(w.kind),
	}
	if col != nil {
		opts = append(opts, pipeline.WithObs(col))
	}
	p, err := pipeline.New(db, oracle, realworld.RedsetSpecs(seed), target, opts...)
	if err != nil {
		return nil, err
	}
	j := &batchJob{oracleCalls: log}
	// Start from a collected heap, so the previous job's garbage is not
	// charged to this one.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	db0 := readDB(db)
	j.gc0 = readGC()
	cpu0 := cpuTime()
	t0 := time.Now()
	j.res, err = p.Run(ctx)
	j.wall = time.Since(t0)
	j.cpu = cpuTime() - cpu0
	j.gc1 = readGC()
	j.db = readDB(db).sub(db0)
	runtime.ReadMemStats(&ms)
	j.alloc = ms.TotalAlloc - alloc0
	j.llmCalls = oracle.Ledger().Calls()
	j.llmTokens = oracle.Ledger().TotalTokens()
	return j, err
}

// checkBatch verifies one job's output and returns why it is wrong ("" when
// it is right) and how long re-costing the delivered queries took. A job is
// wrong when it was cut short, delivers a workload whose size differs from
// the target total, records a distance its own workload does not have, or
// records a cost the database does not give the query.
func checkBatch(ctx context.Context, db *engine.DB, kind engine.CostKind, target *stats.TargetDistribution, res *pipeline.Result) (string, time.Duration) {
	if res.Partial {
		return "run was cut short in stage " + res.CancelledStage, 0
	}
	if len(res.Workload) != target.Total() {
		return fmt.Sprintf("workload has %d queries, target total is %d", len(res.Workload), target.Total()), 0
	}
	if d := workload.Distance(res.Workload, target); d != res.Distance {
		return fmt.Sprintf("distance recomputes to %g, recorded %g", d, res.Distance), 0
	}
	t0 := time.Now()
	for _, q := range res.Workload {
		c, err := db.Cost(ctx, q.SQL, kind)
		if err != nil {
			return fmt.Sprintf("re-costing %q: %v", q.SQL, err), 0
		}
		if c != q.Cost {
			return fmt.Sprintf("query re-costs to %g, recorded %g: %s", c, q.Cost, q.SQL), 0
		}
	}
	return "", time.Since(t0)
}

// workloadHash fingerprints a delivered workload: every query's text, cost
// and template, in order.
func workloadHash(qs []workload.Query) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, q := range qs {
		h.Write([]byte(q.SQL))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(q.Cost))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(q.TemplateID))
		h.Write(b[:])
	}
	return h.Sum64()
}

// combineHash folds one job's hash into a workload's running hash.
func combineHash(acc, job uint64) uint64 { return mix64(acc ^ job) }

// runBatch measures a batch workload: set up (dataset plus one untimed
// warm-up job, several times), then run the job list closed-loop with one
// client.
func runBatch(ctx context.Context, w workloadDef, o runOpts, rep *report) error {
	sh := w.shape(o.small)
	target := w.target(sh)
	var db *engine.DB
	var setups, opens []float64
	for k := 0; k < o.setups; k++ {
		t0 := time.Now()
		db = openDataset(w.dataset, dataSeed, sh.sf)
		opens = append(opens, msSince(t0))
		// The warm-up skips the modelled oracle round trips: waiting warms
		// nothing.
		if _, err := runBatchJob(ctx, db, w, target, warmSeed, latency{}, nil); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", quantile(setups, 0.5), len(setups))

	var tr *tracer
	if o.trace {
		var err error
		if tr, err = newTracer(w, o); err != nil {
			return err
		}
		defer tr.close()
		tr.l.add("datagen.open_ms", quantile(opens, 0.5))
	}
	var walls []float64
	var cpu time.Duration
	var alloc uint64
	var queries, evals, llmCalls, llmTokens int64
	var distance float64
	for i, seed := range w.jobList(o.seed, o.jobs) {
		rep.attempted++
		j, err := runBatchJob(ctx, db, w, target, seed, w.lat, nil)
		if err != nil {
			rep.fail(i, seed, err.Error())
			continue
		}
		why, recost := checkBatch(ctx, db, w.kind, target, j.res)
		rep.hash = combineHash(rep.hash, workloadHash(j.res.Workload))
		walls = append(walls, j.wall.Seconds())
		cpu += j.cpu
		alloc += j.alloc
		queries += int64(len(j.res.Workload))
		evals += j.res.DBCalls
		llmCalls += j.llmCalls
		llmTokens += j.llmTokens
		distance += j.res.Distance
		if tr != nil && why == "" {
			if why, err = tr.job(ctx, db, w, target, i, seed, j, recost); err != nil {
				return err
			}
		}
		if why != "" {
			rep.fail(i, seed, why)
		}
	}
	n := len(walls)
	if n == 0 {
		return nil
	}
	sum := mean(walls) * float64(n)
	rep.set("job_s_mean", mean(walls), n)
	rep.set("job_s_p50", quantile(walls, 0.5), n)
	rep.set("job_s_p90", quantile(walls, 0.9), n)
	rep.set("queries_per_s", float64(queries)/sum, n)
	rep.set("cpu_s_per_job", cpu.Seconds()/float64(n), n)
	rep.set("alloc_mb_per_job", float64(alloc)/(1<<20)/float64(n), n)
	rep.set("dbms_evals_per_job", float64(evals)/float64(n), n)
	rep.set("llm_calls_per_job", float64(llmCalls)/float64(n), n)
	rep.set("llm_tokens_per_job", float64(llmTokens)/float64(n), n)
	rep.set("distance_mean", distance/float64(n), n)
	if tr != nil {
		tr.finish(rep)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

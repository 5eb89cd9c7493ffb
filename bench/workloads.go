package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/stats"
)

// shape is the size of one workload's jobs: the dataset scale factor and the
// target distribution's query count, interval count and cost range.
type shape struct {
	sf        float64
	queries   int
	intervals int
	rangeHi   float64
}

// workloadDef is one benchmark workload. Batch workloads run jobs one after
// another through pipeline.New(...).Run on a dataset opened at set-up;
// daemon workloads submit jobs to an in-process sqlbarberd instead.
type workloadDef struct {
	name string
	// full is the measured size; small is the shrunk size the smoke test
	// runs.
	full, small shape
	// jobSeconds is the mean job time on the reference box (2 cores); the
	// job list holds seconds/jobSeconds jobs, so a run measures about
	// -seconds there. For the daemon it is wall time per job at full load.
	jobSeconds float64
	// jobSeeds are the checked job seeds the job list is drawn from.
	jobSeeds []int64
	dataset  string // tpch | imdb (batch workloads)
	kind     engine.CostKind
	target   func(s shape) *stats.TargetDistribution
	parallel int
	lat      latency
	daemon   bool
}

func (w workloadDef) shape(small bool) shape {
	if small {
		return w.small
	}
	return w.full
}

// jobs is the length of the job list for a run of the given length.
func (w workloadDef) jobs(seconds int) int {
	return max(1, int(float64(seconds)/w.jobSeconds+0.5))
}

// workloads returns the four workloads. Each loads a different layer: the
// BO surrogate (plancost-tpch), query execution (rows-tpch), oracle round
// trips (llm-wait-imdb), and the job service with per-job datasets and
// artifact storage (daemon-mixed).
func workloads() []workloadDef {
	return []workloadDef{
		{
			name:       "plancost-tpch",
			full:       shape{sf: 2, queries: 2000, intervals: 20, rangeHi: 10000},
			small:      shape{sf: 0.05, queries: 40, intervals: 4, rangeHi: 2000},
			jobSeconds: 1.55,
			jobSeeds:   checkedSeeds(1000, 1024),
			dataset:    "tpch",
			kind:       engine.PlanCost,
			target: func(s shape) *stats.TargetDistribution {
				return realworld.RedsetCost(0, s.rangeHi, s.intervals, s.queries)
			},
			parallel: 1,
		},
		{
			name:       "rows-tpch",
			full:       shape{sf: 0.01, queries: 200, intervals: 8, rangeHi: 5000},
			small:      shape{sf: 0.01, queries: 40, intervals: 4, rangeHi: 2000},
			jobSeconds: 1.7,
			jobSeeds:   checkedSeeds(1000, 1022, 1005, 1008),
			dataset:    "tpch",
			kind:       engine.RowsProcessed,
			target: func(s shape) *stats.TargetDistribution {
				return stats.Uniform(0, s.rangeHi, s.intervals, s.queries)
			},
			parallel: 1,
		},
		{
			name:       "llm-wait-imdb",
			full:       shape{sf: 0.5, queries: 200, intervals: 10, rangeHi: 2500},
			small:      shape{sf: 0.05, queries: 40, intervals: 4, rangeHi: 500},
			jobSeconds: 2.9,
			jobSeeds:   checkedSeeds(1000, 1020),
			dataset:    "imdb",
			kind:       engine.Cardinality,
			target: func(s shape) *stats.TargetDistribution {
				return realworld.SnowsetCardinality(2, 0, s.rangeHi, s.intervals, s.queries)
			},
			parallel: 2,
			lat:      latency{base: 20 * time.Millisecond, slow: 200 * time.Millisecond, slowEvery: 20},
		},
		{
			name:       "daemon-mixed",
			full:       shape{sf: 0.5, queries: 200, intervals: 10, rangeHi: 2500},
			small:      shape{sf: 0.1, queries: 40, intervals: 4, rangeHi: 1000},
			jobSeconds: 0.17,
			// Even seeds are TPC-H jobs, odd seeds IMDB jobs (daemonRequest).
			jobSeeds: checkedSeeds(1000, 1400, 1064, 1194, 1201, 1238),
			daemon:   true,
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Job lists. Two facts about SQLBarber shape them. A job's cost varies
// several-fold from one job seed to the next (and with the dataset seed), so
// a job list drawn afresh per -seed would make per-job means incomparable
// between runs. And on some job seeds the search leaves an interval short of
// its target count, which the checker rightly counts as a failure. So each
// workload runs a fixed list of jobs that reach distance 0 at the commit that
// defined the benchmark, on datasets generated from fixed seeds, and -seed
// shuffles the order the jobs run in. A listed job that starts failing is a
// regression the checker reports.

// checkedSeeds lists the job seeds from..to-1 except the ones whose job
// falls short.
func checkedSeeds(from, to int64, short ...int64) []int64 {
	var out []int64
	for s := from; s < to; s++ {
		if !slices.Contains(short, s) {
			out = append(out, s)
		}
	}
	return out
}

// jobList is a run's job seeds: the first n checked seeds in an order
// shuffled by seed. Runs longer than the list allows use the whole list.
func (w workloadDef) jobList(seed int64, n int) []int64 {
	out := slices.Clone(w.jobSeeds[:min(n, len(w.jobSeeds))])
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Dataset seeds. Batch jobs run on one dataset generated from dataSeed;
// daemon jobs generate their own from the job seed. warmSeed seeds every
// warm-up job (the daemon's second concurrent warm-up uses warmSeed-1); it is
// in no job list.
const (
	dataSeed = 1
	warmSeed = 996
)

// openDataset generates the dataset a batch workload's jobs run against.
func openDataset(name string, seed int64, sf float64) *engine.DB {
	if name == "imdb" {
		return engine.OpenIMDB(seed, sf)
	}
	return engine.OpenTPCH(seed, sf)
}

// runWorkload sets the workload up, runs its job list, checks every job,
// and returns the metrics.
func runWorkload(ctx context.Context, w workloadDef, o runOpts) (*report, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{workload: w.name, metrics: map[string]sample{}}
	var err error
	if w.daemon {
		err = runDaemon(ctx, w, o, rep)
	} else {
		err = runBatch(ctx, w, o, rep)
	}
	if err != nil {
		return nil, err
	}
	if rep.attempted == 0 {
		return nil, fmt.Errorf("no job ran")
	}
	rep.set("fail_ratio", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	rep.set("max_rss_mb", maxRSSMB(), 1)
	return rep, ctx.Err()
}

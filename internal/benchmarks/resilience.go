package benchmarks

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/stats"
)

// resilienceFaultRate is the injected fault probability the recovery gate
// runs under (the "20% injected faults" acceptance criterion).
const resilienceFaultRate = 0.2

// resilienceCacheWinFloor is the minimum fraction of paid LLM calls a warm
// cache rerun must eliminate for the bench to pass.
const resilienceCacheWinFloor = 0.30

// callCost is one arm's absolute cost per LLM call the pipeline made, served
// either by the base oracle or by the prompt cache: the arm's wall time and
// the process's heap allocations over the run, divided by the call count.
type callCost struct {
	LLMCalls      int64   `json:"llm_calls"`
	NSPerCall     float64 `json:"ns_per_call"`
	AllocsPerCall float64 `json:"allocs_per_call"`
}

// ResiliencePoint is one faulty-oracle arm of the resilience experiment.
type ResiliencePoint struct {
	Workers int    `json:"workers"`
	MS      int64  `json:"ms"`
	Retries int64  `json:"retries"`
	Faults  int64  `json:"faults_injected"`
	Hash    string `json:"workload_hash"`
	callCost
}

// ResilienceBenchResult is the BENCH_resilience.json artifact: the recovery
// gate (identical workload hash under injected faults at every worker count)
// and the cache-win gate (a warm rerun pays at least 30% fewer LLM calls).
type ResilienceBenchResult struct {
	FaultRate       float64           `json:"fault_rate"`
	BaselineHash    string            `json:"baseline_hash"`
	BaselineMS      int64             `json:"baseline_ms"`
	BaselinePerCall callCost          `json:"baseline_per_call"`
	Points          []ResiliencePoint `json:"faulty_points"`

	ColdLLMCalls int64    `json:"cold_llm_calls"`
	WarmLLMCalls int64    `json:"warm_llm_calls"`
	ColdMS       int64    `json:"cold_ms"`
	WarmMS       int64    `json:"warm_ms"`
	ColdPerCall  callCost `json:"cold_per_call"`
	WarmPerCall  callCost `json:"warm_per_call"`
	CacheSavings float64  `json:"cache_savings"`
}

// String renders the per-call figures for the experiment's text output.
func (c callCost) String() string {
	return fmt.Sprintf("calls=%-4d %.0f ns/call %.0f allocs/call", c.LLMCalls, c.NSPerCall, c.AllocsPerCall)
}

// counterValue reads a named counter out of a metric snapshot (0 if absent).
func counterValue(snap obs.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// resilienceArm is one pipeline run of the resilience experiment.
type resilienceArm struct {
	res     *pipeline.Result
	ledger  *llm.Ledger
	snap    obs.Snapshot
	elapsed time.Duration
	allocs  uint64
}

// perCall divides the arm's wall time and allocations by the LLM calls the
// pipeline made: calls that reached the base oracle plus prompt-cache hits.
// Faulted attempts never reach the base, so every arm of one seed makes the
// same calls and the per-call figures compare across arms.
func (a resilienceArm) perCall() callCost {
	c := callCost{LLMCalls: a.ledger.Calls() + counterValue(a.snap, obs.MLLMCacheHits)}
	if c.LLMCalls > 0 {
		c.NSPerCall = float64(a.elapsed.Nanoseconds()) / float64(c.LLMCalls)
		c.AllocsPerCall = float64(a.allocs) / float64(c.LLMCalls)
	}
	return c
}

// RunResilienceBench measures what the oracle middleware chain guarantees
// rather than how fast it is. Recovery: with a deterministic 20% fault
// schedule and a retry budget above the fault window, the workload hash must
// equal the fault-free baseline at 1, 2, and 8 workers — faults burn retries,
// never entropy. Cache win: a warm rerun over a persistent prompt cache with
// the same seed must pay at least 30% fewer LLM calls than the cold run (in
// practice zero) while reproducing the identical workload. Either gate
// failing is returned as an error so CI trips. Next to the gates every arm
// reports its absolute ns and heap allocations per LLM call. When jsonPath
// is non-empty the result is also written there as JSON.
func (r *Runner) RunResilienceBench(ctx context.Context, w io.Writer, jsonPath string) (*ResilienceBenchResult, error) {
	target := stats.Uniform(0, r.Scale.RangeHi, 5, 600/r.Scale.QueryDivisor)
	res := &ResilienceBenchResult{FaultRate: resilienceFaultRate}
	fmt.Fprintf(w, "=== Oracle resilience | TPC-H sf=%.1f, %.0f%% injected faults, persistent prompt cache ===\n",
		r.Scale.SF, resilienceFaultRate*100)

	// run executes one pipeline arm: the result, the base-oracle ledger, the
	// metric snapshot, and the wall clock and allocations of the run.
	run := func(workers int, extra ...pipeline.Option) (resilienceArm, error) {
		db := TPCH.Open(r.Seed, r.Scale.SF)
		sim := llm.NewSim(llm.SimOptions{Seed: r.Seed})
		collector := obs.NewCollector()
		opts := append([]pipeline.Option{
			pipeline.WithSeed(r.Seed),
			pipeline.WithCostKind(engine.Cardinality),
			pipeline.WithParallel(workers),
			pipeline.WithObs(collector),
		}, extra...)
		p, err := pipeline.New(db, sim, r.Specs(), target, opts...)
		if err != nil {
			return resilienceArm{}, err
		}
		mallocsBefore := mallocs()
		start := time.Now()
		cres, err := p.Run(ctx)
		if err != nil {
			return resilienceArm{}, err
		}
		elapsed := time.Since(start)
		return resilienceArm{res: cres, ledger: sim.Ledger(), snap: collector.Snapshot(),
			elapsed: elapsed, allocs: mallocs() - mallocsBefore}, nil
	}

	// Fault-free baseline.
	base, err := run(1)
	if err != nil {
		return nil, err
	}
	res.BaselineHash = workloadHash(base.res.Workload)
	res.BaselineMS = base.elapsed.Milliseconds()
	res.BaselinePerCall = base.perCall()
	fmt.Fprintf(w, "baseline    workers=1  elapsed=%-10s %s workload=%s\n",
		base.elapsed.Round(time.Millisecond), res.BaselinePerCall, res.BaselineHash)

	// Faulty arms: recovery must hold at every worker count. The fake clock
	// makes the retry backoff free, so the arm measures recovery, not sleep.
	policy := pipeline.ResiliencePolicy{
		Retry:         llm.RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, Jitter: 0.3},
		FaultRate:     resilienceFaultRate,
		FaultAttempts: 2,
		FaultSeed:     r.Seed,
		Clock:         llm.NewFakeClock(),
	}
	for _, workers := range []int{1, 2, 8} {
		arm, err := run(workers, pipeline.WithResilience(policy))
		if err != nil {
			return nil, fmt.Errorf("benchmarks: faulty arm workers=%d failed despite retry budget: %w", workers, err)
		}
		pt := ResiliencePoint{
			Workers:  workers,
			MS:       arm.elapsed.Milliseconds(),
			Retries:  counterValue(arm.snap, obs.MLLMRetries),
			Faults:   counterValue(arm.snap, obs.MLLMFaultsInjected),
			Hash:     workloadHash(arm.res.Workload),
			callCost: arm.perCall(),
		}
		res.Points = append(res.Points, pt)
		fmt.Fprintf(w, "faulty      workers=%-2d elapsed=%-10s %s retries=%-5d faults=%-5d workload=%s\n",
			workers, arm.elapsed.Round(time.Millisecond), pt.callCost, pt.Retries, pt.Faults, pt.Hash)
		if pt.Hash != res.BaselineHash {
			return res, fmt.Errorf("benchmarks: recovery gate failed: workers=%d workload %s != fault-free %s",
				workers, pt.Hash, res.BaselineHash)
		}
		if pt.Faults == 0 {
			return res, fmt.Errorf("benchmarks: fault schedule never fired at workers=%d; arm is vacuous", workers)
		}
	}

	// Cache arms: cold fill, then a warm rerun with the same seed.
	cacheDir, err := os.MkdirTemp("", "sqlbarber-promptcache-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(cacheDir)
	cold, err := run(1, pipeline.WithOracleCacheDir(cacheDir))
	if err != nil {
		return res, err
	}
	res.ColdLLMCalls = cold.ledger.Calls()
	res.ColdMS = cold.elapsed.Milliseconds()
	res.ColdPerCall = cold.perCall()
	warm, err := run(1, pipeline.WithOracleCacheDir(cacheDir))
	if err != nil {
		return res, err
	}
	res.WarmLLMCalls = warm.ledger.Calls()
	res.WarmMS = warm.elapsed.Milliseconds()
	res.WarmPerCall = warm.perCall()
	if res.ColdLLMCalls > 0 {
		res.CacheSavings = 1 - float64(res.WarmLLMCalls)/float64(res.ColdLLMCalls)
	}
	coldHash, warmHash := workloadHash(cold.res.Workload), workloadHash(warm.res.Workload)
	fmt.Fprintf(w, "cache cold  workers=1  elapsed=%-10s %s paid=%-6d workload=%s\n",
		cold.elapsed.Round(time.Millisecond), res.ColdPerCall, res.ColdLLMCalls, coldHash)
	fmt.Fprintf(w, "cache warm  workers=1  elapsed=%-10s %s paid=%-6d savings=%.0f%% workload=%s\n",
		warm.elapsed.Round(time.Millisecond), res.WarmPerCall, res.WarmLLMCalls, res.CacheSavings*100, warmHash)
	if warmHash != coldHash {
		return res, fmt.Errorf("benchmarks: warm cache rerun changed the workload: %s != %s", warmHash, coldHash)
	}
	if res.ColdLLMCalls == 0 {
		return res, fmt.Errorf("benchmarks: cold run paid no LLM calls; cache arm is vacuous")
	}
	if res.CacheSavings < resilienceCacheWinFloor {
		return res, fmt.Errorf("benchmarks: cache-win gate failed: warm rerun saved %.0f%% of %d paid calls, need >= %.0f%%",
			res.CacheSavings*100, res.ColdLLMCalls, resilienceCacheWinFloor*100)
	}

	fmt.Fprintf(w, "gates: recovery (hash %s at 1/2/8 workers under %.0f%% faults) and cache win (%.0f%% >= %.0f%%) hold\n",
		res.BaselineHash, resilienceFaultRate*100, res.CacheSavings*100, resilienceCacheWinFloor*100)
	return res, writeBenchJSON(w, jsonPath, res)
}

package benchmarks

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sqlbarber/internal/baselines/baseline"
	"sqlbarber/internal/baselines/hillclimb"
	"sqlbarber/internal/baselines/learnedsqlgen"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/generator"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
)

// Method names one of the five compared systems.
type Method string

// The five methods of Figures 5-7.
const (
	SQLBarber       Method = "SQLBarber"
	HillClimbOrder  Method = "HillClimbing-order"
	HillClimbPrio   Method = "HillClimbing-priority"
	LearnedSQLOrder Method = "LearnedSQLGen-order"
	LearnedSQLPrio  Method = "LearnedSQLGen-priority"
)

// AllMethods lists the methods in the paper's legend order.
var AllMethods = []Method{HillClimbOrder, HillClimbPrio, LearnedSQLOrder, LearnedSQLPrio, SQLBarber}

// TrajectoryPoint samples the distance-over-time curve.
type TrajectoryPoint struct {
	Elapsed  time.Duration
	Distance float64
}

// MethodResult is one cell of a Figure 5/6 panel.
type MethodResult struct {
	Method        Method
	Benchmark     string
	Dataset       Dataset
	E2ETime       time.Duration
	FinalDistance float64
	Queries       int
	Evaluations   int64
	Trajectory    []TrajectoryPoint
}

// realDBMSLatency is the assumed per-evaluation cost on the paper's testbed
// (PostgreSQL on TPC-H SF10: EXPLAIN round-trip plus client overhead).
// ProjectedE2E maps our evaluation counts onto the paper's wall-clock scale.
const realDBMSLatency = 100 * time.Millisecond

// ProjectedE2E estimates the end-to-end time the run would take against a
// production-scale DBMS where each evaluation costs ~100ms — the scale at
// which the paper's minutes/hours numbers live.
func (r MethodResult) ProjectedE2E() time.Duration {
	return time.Duration(r.Evaluations) * realDBMSLatency
}

// Runner executes experiments at one scale.
type Runner struct {
	Scale Scale
	Seed  int64
	// Parallel is forwarded to pipeline.WithParallel for SQLBarber runs
	// (default 1; results are byte-identical for any value).
	Parallel int

	mu        sync.Mutex
	dbs       map[string]*engine.DB
	seeds     map[string][]*sqltemplate.Template
	libraries map[string][]*sqltemplate.Template
}

// NewRunner creates a Runner.
func NewRunner(scale Scale, seed int64) *Runner {
	return &Runner{
		Scale:     scale,
		Seed:      seed,
		dbs:       map[string]*engine.DB{},
		seeds:     map[string][]*sqltemplate.Template{},
		libraries: map[string][]*sqltemplate.Template{},
	}
}

// DB returns (and caches) the dataset at the runner's scale.
func (r *Runner) DB(ds Dataset) *engine.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := string(ds)
	if db, ok := r.dbs[key]; ok {
		return db
	}
	db := ds.Open(r.Seed, r.Scale.SF)
	r.dbs[key] = db
	return db
}

// Specs returns the Redset-style specification workload of §6.1.
func (r *Runner) Specs() []spec.Spec { return realworld.RedsetSpecs(r.Seed) }

// seedTemplates generates the baseline seed templates once per dataset using
// a hallucination-free oracle (baselines receive correct templates as input,
// per §6.1 — their weakness is search, not generation).
func (r *Runner) seedTemplates(ctx context.Context, ds Dataset) []*sqltemplate.Template {
	db := r.DB(ds)
	r.mu.Lock()
	defer r.mu.Unlock()
	key := string(ds)
	if ts, ok := r.seeds[key]; ok {
		return ts
	}
	gen := generator.New(db, llm.NewSim(llm.Perfect(r.Seed)), generator.Options{Seed: r.Seed})
	results, err := gen.GenerateAll(ctx, r.Specs())
	if err != nil {
		panic(fmt.Sprintf("benchmarks: seed template generation failed: %v", err))
	}
	ts := generator.ValidResults(results)
	r.seeds[key] = ts
	return ts
}

// Library returns the mutated baseline template library for a dataset.
func (r *Runner) Library(ctx context.Context, ds Dataset) []*sqltemplate.Template {
	seeds := r.seedTemplates(ctx, ds)
	r.mu.Lock()
	defer r.mu.Unlock()
	key := string(ds)
	if lib, ok := r.libraries[key]; ok {
		return lib
	}
	lib := baseline.BuildLibrary(r.dbs[key].Schema(), seeds, r.Scale.LibrarySize, r.Seed)
	r.libraries[key] = lib
	return lib
}

// RunMethod executes one method on one benchmark and dataset.
func (r *Runner) RunMethod(ctx context.Context, m Method, b Benchmark, ds Dataset) (MethodResult, error) {
	return r.runMethodOn(ctx, m, b, ds, b.Target(0, r.Scale.RangeHi, r.Scale.QueryDivisor), b.CostKind)
}

func (r *Runner) runMethodOn(ctx context.Context, m Method, b Benchmark, ds Dataset, target *stats.TargetDistribution, kind engine.CostKind) (MethodResult, error) {
	db := r.DB(ds)
	res := MethodResult{Method: m, Benchmark: b.Name, Dataset: ds}
	startEvals := db.ExplainCalls() + db.ExecCalls()
	start := time.Now()
	switch m {
	case SQLBarber:
		parallel := r.Parallel
		if parallel < 1 {
			parallel = 1
		}
		p, err := pipeline.New(db, llm.NewSim(llm.SimOptions{Seed: r.Seed}), r.Specs(), target,
			pipeline.WithSeed(r.Seed),
			pipeline.WithCostKind(kind),
			pipeline.WithParallel(parallel),
		)
		if err != nil {
			return res, err
		}
		out, err := p.Run(ctx)
		if err != nil {
			return res, err
		}
		res.FinalDistance = out.Distance
		res.Queries = len(out.Workload)
		for _, p := range out.Trajectory {
			res.Trajectory = append(res.Trajectory, TrajectoryPoint{p.Elapsed, p.Distance})
		}
	case HillClimbOrder, HillClimbPrio, LearnedSQLOrder, LearnedSQLPrio:
		lib := r.Library(ctx, ds)
		budget := r.Scale.BaselineEvalsPerQuery * target.Total()
		env, err := baseline.NewEnv(ctx, db, kind, target, lib, budget)
		if err != nil {
			return res, err
		}
		env.Progress = func() {
			res.Trajectory = append(res.Trajectory, TrajectoryPoint{time.Since(start), env.Pool().Distance()})
		}
		h := baseline.Order
		if m == HillClimbPrio || m == LearnedSQLPrio {
			h = baseline.Priority
		}
		perInterval := budget / len(target.Intervals)
		if m == HillClimbOrder || m == HillClimbPrio {
			hillclimb.Run(env, hillclimb.Options{Heuristic: h, BudgetPerInterval: perInterval, Seed: r.Seed})
		} else {
			learnedsqlgen.Run(env, learnedsqlgen.Options{Heuristic: h, BudgetPerInterval: perInterval, Seed: r.Seed})
		}
		res.FinalDistance = env.Pool().Distance()
		res.Queries = len(env.Pool().Workload())
	default:
		return res, fmt.Errorf("benchmarks: unknown method %q", m)
	}
	res.E2ETime = time.Since(start)
	res.Evaluations = db.ExplainCalls() + db.ExecCalls() - startEvals
	res.Trajectory = append(res.Trajectory, TrajectoryPoint{res.E2ETime, res.FinalDistance})
	return res, nil
}

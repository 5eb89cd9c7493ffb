// Package pipeline decomposes SQLBarber's end-to-end workload generation
// (Definition 2.13) into explicit stages: §4 template generation, §5.1
// profiling, the §5.2+§5.3 refine/search loop, and final workload assembly.
// Each stage reads and writes a shared RunState, is timed individually, and
// observes the caller's context — cancellation stops work at the next stage
// (or intra-stage wave) boundary and still yields a valid partial Result,
// because assembly always runs over whatever the earlier stages produced.
package pipeline

import (
	"context"
	"strconv"
	"strings"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/generator"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/refine"
	"sqlbarber/internal/search"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/storage"
	"sqlbarber/internal/workload"
)

// Ablations bundles the paper's ablation switches (§6.3, Figure 8) into one
// value. The zero value is the full SQLBarber method; String renders the
// label benchmark tables use.
type Ablations struct {
	// DisableRefine turns off Algorithm 2 (the "No-Refine-Prune" ablation).
	DisableRefine bool
	// NaiveSearch replaces BO with random search (the "Naive-Search"
	// ablation).
	NaiveSearch bool
	// IndependentSampling disables LHS during profiling (ablation).
	IndependentSampling bool
	// Phase1Only cuts Algorithm 2's history-aware phase 2 to one iteration
	// refining one template per interval (k=m=1).
	Phase1Only bool
	// UniformTemplates widens Algorithm 3's closeness-weighted 10-template
	// sample to 1000 templates, so weighting stops mattering.
	UniformTemplates bool
}

// String names the configuration the way the paper's figures label it:
// "SQLBarber" for the full method, otherwise the enabled ablations joined
// with "+".
func (a Ablations) String() string {
	if a == (Ablations{}) {
		return "SQLBarber"
	}
	var parts []string
	if a.DisableRefine {
		parts = append(parts, "No-Refine-Prune")
	}
	if a.NaiveSearch {
		parts = append(parts, "Naive-Search")
	}
	if a.IndependentSampling {
		parts = append(parts, "Independent-Sampling")
	}
	if a.Phase1Only {
		parts = append(parts, "Phase1-Only")
	}
	if a.UniformTemplates {
		parts = append(parts, "Uniform-Templates")
	}
	return strings.Join(parts, "+")
}

// Config describes one workload-generation task.
type Config struct {
	// DB is the target database.
	DB *engine.DB
	// Oracle is the language model used for template generation and
	// refinement.
	Oracle llm.Oracle
	// CostKind selects the cost metric (cardinality, plan cost, ...).
	CostKind engine.CostKind
	// Specs are the per-template specifications (one template is generated
	// per spec).
	Specs []spec.Spec
	// Target is the cost distribution the generated workload must match.
	Target *stats.TargetDistribution
	// Seed drives all stochastic components.
	Seed int64

	// Parallel fans independent work (template generation across specs,
	// profiling across templates and probes, BO runs across a search wave)
	// over this many goroutines (default 1); it is the only worker count.
	// Any value produces byte-identical output: every task owns a random
	// stream derived from its position, and results merge in task order.
	Parallel int

	// ProfileFraction sets the profiling budget as a fraction of the
	// requested query count (§5.1; default 0.15).
	ProfileFraction float64

	// Ablations selects which paper ablations to run. The zero value is the
	// full method.
	Ablations Ablations

	// Resilience, when non-nil, wraps the oracle in the middleware chain it
	// describes (retry, fault injection). Set via WithResilience, which
	// validates the policy.
	Resilience *ResiliencePolicy
	// OracleCache, when non-nil, is the persistent prompt cache layered
	// outermost over the paid oracle. Set via WithOracleCacheDir.
	OracleCache *storage.PromptCache

	// Obs receives the run's trace and metrics (spans, counters, gauges,
	// histograms) and the distance trajectory as obs.KindProgress events.
	// Nil means obs.Nop: observation is pure, so attaching a sink never
	// changes the generated workload.
	Obs obs.Sink
}

// ProgressPoint is one sample of the distance-over-time trajectory.
type ProgressPoint struct {
	Elapsed  time.Duration
	Distance float64
}

// StageTiming records how long one pipeline stage ran.
type StageTiming struct {
	Stage   string
	Elapsed time.Duration
}

// Result is a completed (or cancelled-but-assembled) workload generation.
type Result struct {
	// Workload is the selected N-query workload.
	Workload []workload.Query
	// Distance is the Wasserstein distance between the workload's costs and
	// the target distribution (0 = exact match).
	Distance float64
	// Templates is the final template set (seeds + accepted refinements,
	// after pruning).
	Templates []*workload.TemplateState
	// GenResults holds per-spec generation traces (Algorithm 1 attempts).
	GenResults []*generator.Result
	// PrunedTemplates is always empty: no stage prunes templates before
	// profiling. It stays only because the bench/ harness still reads it.
	PrunedTemplates []int
	// RefineStats and SearchStats report component behaviour.
	RefineStats refine.Stats
	SearchStats search.Stats
	// Trajectory is the recorded distance-over-time series.
	Trajectory []ProgressPoint
	// Elapsed is the wall-clock generation time.
	Elapsed time.Duration
	// DBCalls is the number of DBMS evaluations consumed.
	DBCalls int64
	// StageTimings lists per-stage wall-clock durations in execution order.
	StageTimings []StageTiming
	// Partial marks a run cut short by context cancellation; the workload
	// holds the best queries gathered before the cut.
	Partial bool
	// CancelledStage names the stage that observed the cancellation (empty
	// when Partial is false).
	CancelledStage string
}

// RunState is the shared state stages read and write. A fresh one is built
// per run; stages communicate exclusively through it.
type RunState struct {
	Cfg   Config
	Start time.Time
	Res   *Result

	// Sink is the run's observability scope (the root "run" span, or
	// obs.Nop). Stages read time through it — never time.Now directly — so a
	// test-injected clock governs every recorded duration.
	Sink obs.Sink

	// Gen is the §4 generator (built by the generate stage).
	Gen *generator.Generator
	// Prof is the §5.1 profiler (built by the profile stage, reused by
	// refinement).
	Prof *profiler.Profiler
	// States are the live templates flowing through profile → refine →
	// search.
	States []*workload.TemplateState
	// Pool is the current distribution: every distribution-countable query
	// produced so far (profiling observations + search probes), deduplicated
	// per interval. Search fills it, and assembly reads the workload and its
	// distance from it.
	Pool *workload.Pool

	startCalls    int64
	seenTemplates map[int]bool
}

// CollectProfileQueries folds the profiling observations of any templates
// not yet seen into the query pool: profiled probes double as seed queries
// for the workload.
func (rs *RunState) CollectProfileQueries() {
	for _, st := range rs.States {
		id := st.Profile.Template.ID
		if rs.seenTemplates[id] {
			continue
		}
		rs.seenTemplates[id] = true
		for _, o := range st.Profile.Obs {
			rs.Pool.Add(workload.Query{SQL: o.SQL, Cost: o.Cost, TemplateID: id})
		}
	}
}

// Stage is one unit of the pipeline. Run mutates the shared state; an error
// aborts the remaining stages (assembly still runs when the error is the
// context's own cancellation, producing a partial Result).
type Stage interface {
	Name() string
	Run(ctx context.Context, rs *RunState) error
}

// Stages returns the standard pipeline in execution order. Assembly is not
// listed: it is unconditional and runs after the stage loop.
func Stages() []Stage {
	return []Stage{generateStage{}, profileStage{}, refineSearchStage{}}
}

// run executes the pipeline over a configuration New has validated and
// defaulted. On context cancellation it returns a partial Result
// (Partial=true, CancelledStage set) assembled from the queries gathered so
// far rather than an error; hard failures (no valid templates, oracle
// breakdown) return an error.
func run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.Oracle = chainOracle(&cfg)

	sink := cfg.Obs
	if sink == nil {
		sink = obs.Nop
	}
	// Adopt the subsystem-owned counters into the metric snapshot. Binding
	// the same memory the subsystems mutate is what makes snapshot totals
	// and DB/ledger getters identical by construction.
	if b, ok := sink.(obs.Binder); ok {
		cfg.DB.BindObs(b)
		if m, ok := cfg.Oracle.(llm.Metered); ok {
			m.Ledger().BindObs(b)
		}
		// A chained oracle (built here or handed in pre-chained) carries
		// middleware counters; adopt them by reference the same way. The
		// wall-clock latency histogram is marked volatile so Stable()
		// snapshots stay byte-identical across worker counts.
		if ob, ok := cfg.Oracle.(llm.ObsBinder); ok {
			ob.BindObs(b)
			if hm, ok := sink.(obs.HistogramMarker); ok {
				hm.MarkVolatileHistogram(obs.HLLMLatencyMS)
			}
		}
	}
	ctx, runSpan := obs.StartSpan(obs.NewContext(ctx, sink), "run",
		obs.A("parallel", strconv.Itoa(cfg.Parallel)),
		obs.A("ablations", cfg.Ablations.String()),
		obs.A("specs", strconv.Itoa(len(cfg.Specs))))
	defer runSpan.End()

	rs := &RunState{
		Cfg:           cfg,
		Sink:          runSpan,
		Start:         runSpan.Now(),
		Res:           &Result{},
		Pool:          workload.NewPool(cfg.Target),
		startCalls:    cfg.DB.ExplainCalls() + cfg.DB.ExecCalls(),
		seenTemplates: map[int]bool{},
	}
	for _, st := range Stages() {
		stageCtx, sp := obs.StartSpan(ctx, "stage:"+st.Name())
		t0 := sp.Now()
		err := st.Run(stageCtx, rs)
		rs.Res.StageTimings = append(rs.Res.StageTimings, StageTiming{Stage: st.Name(), Elapsed: sp.Now().Sub(t0)})
		sp.End()
		if err != nil {
			if ctx.Err() != nil {
				rs.Res.Partial = true
				rs.Res.CancelledStage = st.Name()
				break
			}
			runSpan.Annotate(obs.A("error", err.Error()))
			return nil, err
		}
		if ctx.Err() != nil {
			rs.Res.Partial = true
			rs.Res.CancelledStage = st.Name()
			break
		}
	}
	_, sp := obs.StartSpan(ctx, "stage:assemble")
	t0 := sp.Now()
	assemble(rs)
	rs.Res.StageTimings = append(rs.Res.StageTimings, StageTiming{Stage: "assemble", Elapsed: sp.Now().Sub(t0)})
	sp.End()
	if rs.Res.Partial {
		runSpan.Annotate(obs.A("cancelled_stage", rs.Res.CancelledStage))
	}
	return rs.Res, nil
}

// assemble is the unconditional final step: select the per-interval quota
// from every gathered query and measure the achieved distance. It runs even
// after cancellation so a partial run still returns its best workload.
func assemble(rs *RunState) {
	res := rs.Res
	res.Templates = rs.States
	res.Workload = rs.Pool.Workload()
	res.Distance = rs.Pool.Distance()
	res.Elapsed = rs.Sink.Now().Sub(rs.Start)
	res.DBCalls = rs.Cfg.DB.ExplainCalls() + rs.Cfg.DB.ExecCalls() - rs.startCalls
	res.Trajectory = append(res.Trajectory, ProgressPoint{Elapsed: res.Elapsed, Distance: res.Distance})
	// The final trajectory sample flows through the event stream too, so
	// progress watchers replay the complete trajectory and trace consumers
	// see the achieved distance without reading the Result.
	rs.Sink.Emit(obs.Event{Kind: obs.KindProgress, Name: "distance", Value: res.Distance, Dur: res.Elapsed})

	rs.Sink.Gauge(obs.GWorkloadQueries, float64(len(res.Workload)))
	rs.Sink.Gauge(obs.GWorkloadDistance, res.Distance)
	if m, ok := rs.Cfg.Oracle.(llm.Metered); ok {
		rs.Sink.Gauge(obs.GLLMCostUSD, m.Ledger().CostUSD())
	}
}

package pipeline

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sqlbarber/internal/analyzer/intervals"
	"sqlbarber/internal/bo"
	"sqlbarber/internal/generator"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/refine"
	"sqlbarber/internal/search"
	"sqlbarber/internal/workload"
)

// generateStage is §4: customized SQL template generation with Algorithm 1
// self-correction. Specs fan across Config.Parallel workers inside
// generator.GenerateAll; results land in RunState.Res.GenResults.
type generateStage struct{}

func (generateStage) Name() string { return "generate" }

func (generateStage) Run(ctx context.Context, rs *RunState) error {
	cfg := rs.Cfg
	genOpts := cfg.GenOpts
	if genOpts.Seed == 0 {
		genOpts.Seed = cfg.Seed
	}
	if genOpts.Parallel == 0 {
		genOpts.Parallel = cfg.Parallel
	}
	rs.Gen = generator.New(cfg.DB, cfg.Oracle, genOpts)
	genResults, err := rs.Gen.GenerateAll(ctx, cfg.Specs)
	rs.Res.GenResults = genResults
	if err != nil {
		return err
	}
	if len(generator.ValidResults(genResults)) == 0 {
		return fmt.Errorf("pipeline: no valid templates were generated from %d specs", len(cfg.Specs))
	}
	return nil
}

// intervalsStage is the static cost-interval tier: before any probe is
// issued, every valid template's compiled plan is abstractly interpreted
// over its slot domains, yielding sound bounds on the profiled metric.
// Templates whose bounds provably miss every requested band are pruned
// (I001), provably flat templates are marked for a single-probe profile
// (I002), and the surviving templates get a BO search box narrowed to the
// reachable slot region. Every verdict is a pure function of (template,
// catalog, target) — no randomness, no probe results — so the stage's
// decisions are identical at any parallelism.
type intervalsStage struct{}

func (intervalsStage) Name() string { return "intervals" }

func (intervalsStage) Run(ctx context.Context, rs *RunState) error {
	cfg := rs.Cfg
	if cfg.Ablations.DisableIntervals {
		return nil
	}
	sink := obs.FromContext(ctx)
	rs.Intervals = map[int]*intervals.Analysis{}
	for _, gr := range rs.Res.GenResults {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !gr.Valid || gr.Template == nil {
			continue
		}
		a := intervals.Analyze(cfg.DB.Schema(), gr.Template, cfg.CostKind, cfg.Target)
		rs.Intervals[gr.Template.ID] = a
		// Surface the I-series verdicts on the template's final attempt
		// trace, next to the X/B/T/... codes earlier tiers recorded.
		if len(a.Diagnostics) > 0 && len(gr.Trace) > 0 {
			last := &gr.Trace[len(gr.Trace)-1]
			last.Diagnostics = append(last.Diagnostics, a.Diagnostics...)
			for _, d := range a.Diagnostics {
				last.Codes = mergeCode(last.Codes, string(d.Code))
			}
		}
		if a.Pruned {
			rs.Res.PrunedTemplates = append(rs.Res.PrunedTemplates, gr.Template.ID)
			sink.Count(obs.MIntervalsPruned, 1)
		}
		if a.Flat {
			sink.Count(obs.MIntervalsFlat, 1)
		}
	}
	return nil
}

// mergeCode inserts a code into a sorted, de-duplicated code list (the
// AttemptTrace.Codes invariant).
func mergeCode(codes []string, code string) []string {
	i := sort.SearchStrings(codes, code)
	if i < len(codes) && codes[i] == code {
		return codes
	}
	codes = append(codes, "")
	copy(codes[i+1:], codes[i:])
	codes[i] = code
	return codes
}

// profileStage is §5.1: Latin Hypercube profiling of every valid template.
// Templates fan across Config.Parallel workers; each template's probes come
// from a random stream keyed by its SQL text, so worker count never changes
// the observations, and the profiled states merge in template order.
type profileStage struct{}

func (profileStage) Name() string { return "profile" }

func (profileStage) Run(ctx context.Context, rs *RunState) error {
	cfg := rs.Cfg
	rs.Prof = &profiler.Profiler{
		DB:                  cfg.DB,
		Kind:                cfg.CostKind,
		Seed:                cfg.Seed + 1,
		IndependentSampling: cfg.Ablations.IndependentSampling,
		Parallel:            cfg.Parallel,
	}
	var valid []*generator.Result
	for _, gr := range rs.Res.GenResults {
		if gr.Valid && gr.Template != nil {
			valid = append(valid, gr)
		}
	}
	if len(valid) == 0 {
		return fmt.Errorf("pipeline: no valid templates to profile")
	}
	// The per-template budget is computed over ALL valid templates — pruned
	// ones included — so interval pruning never changes the probe schedule
	// of the templates that survive: their profiles stay byte-identical to a
	// run without the intervals stage, and every pruned template saves its
	// full budget.
	perTemplate := int(cfg.ProfileFraction * float64(cfg.Target.Total()) / float64(len(valid)))
	if perTemplate < 4 {
		perTemplate = 4
	}
	if perTemplate > 64 {
		perTemplate = 64
	}
	sink := obs.FromContext(ctx)
	flat := map[int]bool{}
	prunedCount := 0
	kept := valid[:0]
	for _, gr := range valid {
		if a := rs.Intervals[gr.Template.ID]; a != nil {
			if a.Pruned {
				prunedCount++
				continue
			}
			if a.Flat {
				flat[gr.Template.ID] = true
			}
		}
		kept = append(kept, gr)
	}
	if prunedCount > 0 {
		sink.Count(obs.MIntervalsProbesSaved, int64(prunedCount*perTemplate))
	}
	if len(flat) > 0 {
		// A flat template gets one midpoint probe instead of the full sweep.
		sink.Count(obs.MIntervalsProbesSaved, int64(len(flat)*(perTemplate-1)))
		rs.Prof.Flat = flat
	}
	if len(kept) == 0 {
		return fmt.Errorf("pipeline: interval analysis pruned all %d valid templates — no requested cost band is reachable", len(valid))
	}
	valid = kept

	profiles := make([]*profiler.Profile, len(valid))
	perr := make([]error, len(valid))
	run := func(i int) {
		profiles[i], perr[i] = rs.Prof.Profile(ctx, valid[i].Template, perTemplate)
	}
	workers := cfg.Parallel
	if workers > len(valid) {
		workers = len(valid)
	}
	if workers <= 1 {
		for i := range valid {
			run(i)
			if ctx.Err() != nil {
				break
			}
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range valid {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	// Ordered merge: template order, not completion order.
	for i := range valid {
		if perr[i] != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // template cannot be instantiated meaningfully; drop it
		}
		if profiles[i] == nil {
			continue // never ran: sequential loop stopped on cancellation
		}
		rs.States = append(rs.States, &workload.TemplateState{Profile: profiles[i], Spec: valid[i].Spec})
	}
	if len(rs.States) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("pipeline: all generated templates failed profiling")
	}
	return nil
}

// refineSearchStage is the §5.2 + §5.3 outer loop: refine and prune
// templates, search predicate values, and — when residual gaps remain —
// refine again with the enriched profiles ("this process continues until the
// generated cost distribution adequately matches the target", §5.3).
type refineSearchStage struct{}

func (refineSearchStage) Name() string { return "refine-search" }

func (refineSearchStage) Run(ctx context.Context, rs *RunState) error {
	cfg := rs.Cfg
	res := rs.Res
	searchOpts := cfg.SearchOpts
	if searchOpts.Seed == 0 {
		searchOpts.Seed = cfg.Seed + 2
	}
	if searchOpts.Parallelism == 0 {
		searchOpts.Parallelism = cfg.Parallel
	}
	searchOpts.Naive = searchOpts.Naive || cfg.Ablations.NaiveSearch
	if searchOpts.SearchBox == nil && rs.Intervals != nil {
		// Seed BO's search box from the interval projection: dimensions are
		// narrowed to the slot cells whose static bounds can still reach a
		// wanted band. Templates without a box (or refined templates born
		// after the intervals stage) keep their full space.
		boxes := map[int]bo.Space{}
		for id, a := range rs.Intervals {
			if a.Box != nil {
				boxes[id] = a.Box
			}
		}
		if len(boxes) > 0 {
			searchOpts.SearchBox = boxes
		}
	}
	ref := &refine.Refiner{Oracle: cfg.Oracle, Prof: rs.Prof, Opts: cfg.RefineOpts}
	sink := obs.FromContext(ctx)

	const maxRounds = 5
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !cfg.Ablations.DisableRefine {
			var rstats refine.Stats
			var err error
			rs.States, rstats, err = ref.Run(ctx, rs.States, cfg.Target)
			res.RefineStats.Iterations += rstats.Iterations
			res.RefineStats.Generated += rstats.Generated
			res.RefineStats.Accepted += rstats.Accepted
			res.RefineStats.ProfileFails += rstats.ProfileFails
			if err != nil {
				return err
			}
			rs.States = refine.Prune(rs.States, cfg.Target)
		}
		rs.CollectProfileQueries()

		srch := &search.Searcher{Kind: cfg.CostKind, Opts: searchOpts}
		srch.Progress = func(qs []workload.Query) {
			sel := workload.SelectWorkload(qs, cfg.Target)
			dist := workload.Distance(sel, cfg.Target)
			pt := ProgressPoint{Elapsed: sink.Now().Sub(rs.Start), Distance: dist}
			res.Trajectory = append(res.Trajectory, pt)
			// Progress watchers (the CLI's -v through obs.OnEvent, the
			// daemon's SSE stream) read the trajectory from this event.
			sink.Emit(obs.Event{Kind: obs.KindProgress, Name: "distance", Value: pt.Distance, Dur: pt.Elapsed})
		}
		var sstats search.Stats
		rs.Queries, sstats = srch.Run(ctx, rs.States, cfg.Target, rs.Queries)
		res.SearchStats.Rounds += sstats.Rounds
		res.SearchStats.Evaluations += sstats.Evaluations
		res.SearchStats.SkippedIntervals += sstats.SkippedIntervals
		res.SearchStats.BadCombinations += sstats.BadCombinations

		sel := workload.SelectWorkload(rs.Queries, cfg.Target)
		if workload.Distance(sel, cfg.Target) == 0 {
			break
		}
	}
	return nil
}

package pipeline

import (
	"context"
	"fmt"

	"sqlbarber/internal/fanout"
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
	rs.Gen = generator.New(cfg.DB, cfg.Oracle, generator.Options{Seed: cfg.Seed})
	rs.Gen.Parallel = cfg.Parallel
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
	perTemplate := int(cfg.ProfileFraction * float64(cfg.Target.Total()) / float64(len(valid)))
	if perTemplate < 4 {
		perTemplate = 4
	}
	if perTemplate > 64 {
		perTemplate = 64
	}

	profiles := make([]*profiler.Profile, len(valid))
	perr := make([]error, len(valid))
	// Cancellation stops the hand-out of further templates; a template that
	// merely fails to profile is dropped by the merge below.
	_ = fanout.Run(cfg.Parallel, len(valid), func(_, i int) error {
		profiles[i], perr[i] = rs.Prof.Profile(ctx, valid[i].Template, perTemplate)
		return ctx.Err()
	})

	// Ordered merge: template order, not completion order.
	for i := range valid {
		if perr[i] != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // template cannot be instantiated meaningfully; drop it
		}
		if profiles[i] == nil {
			continue // never ran: the fan-out stopped on cancellation
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
	ref := &refine.Refiner{Oracle: cfg.Oracle, Prof: rs.Prof, Phase1Only: cfg.Ablations.Phase1Only}
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

		srch := &search.Searcher{
			Kind:             cfg.CostKind,
			Seed:             cfg.Seed + 2,
			Naive:            cfg.Ablations.NaiveSearch,
			UniformTemplates: cfg.Ablations.UniformTemplates,
			Parallel:         cfg.Parallel,
		}
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

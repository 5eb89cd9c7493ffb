// Command sqlbarber generates a customized, realistic SQL workload from the
// command line: pick a dataset, a target cost distribution, and template
// constraints, and receive N SQL queries whose costs match the distribution.
//
// Usage:
//
//	sqlbarber -dataset tpch -cost cardinality -dist uniform -queries 200
//	sqlbarber -dataset imdb -cost plancost -dist redset -queries 500 -out workload.sql
//	sqlbarber -dataset tpch -spec '[{"template_id":1,"num_joins":2,"num_aggregations":1}]'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

func main() {
	var (
		dataset    = flag.String("dataset", "tpch", "dataset: tpch|imdb")
		sf         = flag.Float64("sf", 0.5, "dataset scale factor")
		costKind   = flag.String("cost", "cardinality", "cost metric: cardinality|plancost|rows")
		dist       = flag.String("dist", "uniform", "target distribution: uniform|normal|snowset-card|snowset-cost|redset")
		queries    = flag.Int("queries", 200, "number of queries to generate")
		interval   = flag.Int("intervals", 10, "number of cost intervals")
		rangeHi    = flag.Float64("range", 2500, "top of the target cost range")
		seed       = flag.Int64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", 1, "worker goroutines for generation/profiling/search (output is byte-identical for any value)")
		specJSON   = flag.String("spec", "", "JSON template specifications (default: Redset-derived workload)")
		out        = flag.String("out", "", "output file (default: stdout)")
		format     = flag.String("format", "sql", "output format: sql|json")
		transcript = flag.String("transcript", "", "write a full LLM prompt/response transcript to this file")
		llmURL     = flag.String("llm-url", "", "OpenAI-compatible endpoint; when set, a hosted model replaces the built-in simulated LLM")
		llmModel   = flag.String("llm-model", "o3-mini", "chat model name for -llm-url")
		llmCache   = flag.String("llm-cache", "", "persistent prompt-cache directory; a warm rerun with the same seed pays zero LLM calls")
		llmPolicy  = flag.String("llm-policy", "", "oracle resilience policy, e.g. retry=4,backoff=100ms,jitter=0.3 (with -llm-url, retry defaults to 3)")
		verbose    = flag.Bool("v", false, "print pipeline progress")
		report     = flag.Bool("report", false, "print a run report (span times, counters, histograms) to stderr")
		traceOut   = flag.String("trace", "", "write the run's span trace as JSONL to this file")
		metricsOut = flag.String("metrics", "", "write the metric snapshot in Prometheus text format to this file")
	)
	flag.Parse()

	kind, err := engine.ParseCostKind(*costKind)
	if err != nil {
		fatal("-cost: %v", err)
	}
	var policy pipeline.ResiliencePolicy
	if *llmPolicy != "" {
		if policy, err = pipeline.ParseResiliencePolicy(*llmPolicy); err != nil {
			fatal("parsing -llm-policy: %v", err)
		}
	}
	var db *engine.DB
	switch strings.ToLower(*dataset) {
	case "tpch":
		db = engine.OpenTPCH(*seed, *sf)
	case "imdb":
		db = engine.OpenIMDB(*seed, *sf)
	default:
		fatal("unknown dataset %q (want tpch or imdb)", *dataset)
	}

	var target *stats.TargetDistribution
	switch strings.ToLower(*dist) {
	case "uniform":
		target = stats.Uniform(0, *rangeHi, *interval, *queries)
	case "normal":
		target = stats.Normal(0, *rangeHi, *interval, *queries, *rangeHi/2, *rangeHi/5)
	case "snowset-card":
		target = realworld.SnowsetCardinality(1, 0, *rangeHi, *interval, *queries)
	case "snowset-cost":
		target = realworld.SnowsetCost(0, *rangeHi, *interval, *queries)
	case "redset":
		target = realworld.RedsetCost(0, *rangeHi, *interval, *queries)
	default:
		fatal("unknown distribution %q", *dist)
	}

	specs := realworld.RedsetSpecs(*seed)
	if *specJSON != "" {
		specs, err = spec.ParseJSON([]byte(*specJSON))
		if err != nil {
			fatal("parsing -spec: %v", err)
		}
	}

	var oracle llm.Oracle
	var ledger *llm.Ledger
	if *llmURL != "" {
		h := llm.NewHTTPOracle(*llmURL,
			llm.WithAPIKey(os.Getenv("OPENAI_API_KEY")),
			llm.WithModel(*llmModel))
		oracle, ledger = h, h.Ledger()
	} else {
		sim := llm.NewSim(llm.SimOptions{Seed: *seed})
		if *transcript != "" {
			tf, err := os.Create(*transcript)
			if err != nil {
				fatal("creating transcript %s: %v", *transcript, err)
			}
			defer tf.Close()
			sim.SetTranscript(tf)
		}
		oracle, ledger = sim, sim.Ledger()
	}
	opts := []pipeline.Option{
		pipeline.WithSeed(*seed),
		pipeline.WithParallel(*parallel),
		pipeline.WithCostKind(kind),
	}
	if *llmURL != "" && policy.Retry.MaxAttempts == 0 {
		// The HTTP oracle sends one request per call; the policy's retry
		// layer is the only one, with 3 attempts unless -llm-policy says.
		policy.Retry.MaxAttempts = 3
	}
	if *llmPolicy != "" || *llmURL != "" {
		opts = append(opts, pipeline.WithResilience(policy))
	}
	if *llmCache != "" {
		opts = append(opts, pipeline.WithOracleCacheDir(*llmCache))
	}
	var collector *obs.Collector
	sink := obs.Nop
	if *report || *traceOut != "" || *metricsOut != "" {
		collector = obs.NewCollector()
		sink = collector
	}
	if *verbose {
		sink = obs.OnEvent(sink, func(e obs.Event) {
			if e.Kind == obs.KindProgress {
				fmt.Fprintf(os.Stderr, "  t=%-12s distance=%.1f\n", e.Dur.Round(time.Millisecond), e.Value)
			}
		})
	}
	opts = append(opts, pipeline.WithObs(sink))
	p, err := pipeline.New(db, oracle, specs, target, opts...)
	if err != nil {
		fatal("invalid configuration: %v", err)
	}
	// Ctrl-C cancels the pipeline at the next stage boundary; the partial
	// workload gathered so far is still written out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := p.Run(ctx)
	if err != nil {
		fatal("generation failed: %v", err)
	}
	if res.Partial {
		fmt.Fprintf(os.Stderr, "sqlbarber: interrupted during the %q stage; writing the partial workload gathered so far\n", res.CancelledStage)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("creating %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		m := workload.NewManifest(kind.String(), target, res.Workload)
		if err := m.WriteJSON(w); err != nil {
			fatal("writing JSON: %v", err)
		}
	default:
		if err := workload.WriteSQL(w, kind.String(), res.Workload); err != nil {
			fatal("writing SQL: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "generated %d queries | wasserstein distance %.2f | %d templates | %d DBMS calls | %s | LLM: %dK tokens $%.2f\n",
		len(res.Workload), res.Distance, len(res.Templates), res.DBCalls, res.Elapsed.Round(1e6),
		ledger.TotalTokens()/1000, ledger.CostUSD())

	if collector != nil {
		if *report {
			if err := collector.WriteReport(os.Stderr); err != nil {
				fatal("writing report: %v", err)
			}
		}
		if *traceOut != "" {
			if err := writeFileWith(*traceOut, collector.WriteJSONL); err != nil {
				fatal("writing trace: %v", err)
			}
		}
		if *metricsOut != "" {
			if err := writeFileWith(*metricsOut, collector.WritePrometheus); err != nil {
				fatal("writing metrics: %v", err)
			}
		}
	}
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlbarber: "+format+"\n", args...)
	os.Exit(1)
}

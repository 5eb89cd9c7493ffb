package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/stats"
)

// runSignature renders every observable output of a run — the workload
// (SQL, cost, template id, in order), the final distance, the DBMS call
// count, the distance trajectory, the surviving template SQL, and the
// per-spec generation verdicts — so two runs can be diffed byte-for-byte.
// Wall-clock fields (Elapsed, StageTimings, trajectory timestamps) are the
// only outputs deliberately excluded.
func runSignature(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "distance=%.9g dbcalls=%d queries=%d partial=%v\n",
		res.Distance, res.DBCalls, len(res.Workload), res.Partial)
	for i, q := range res.Workload {
		fmt.Fprintf(&b, "q%d\t%d\t%.9g\t%s\n", i, q.TemplateID, q.Cost, q.SQL)
	}
	for i, p := range res.Trajectory {
		fmt.Fprintf(&b, "traj%d\t%.9g\n", i, p.Distance)
	}
	for i, st := range res.Templates {
		fmt.Fprintf(&b, "tmpl%d\t%d\t%s\n", i, st.Profile.Template.ID, st.Profile.Template.SQL())
	}
	for i, gr := range res.GenResults {
		fmt.Fprintf(&b, "gen%d\tvalid=%v attempts=%d\n", i, gr.Valid, len(gr.Trace))
	}
	return b.String()
}

// TestParallelByteIdentical is the repo's determinism contract for the whole
// pipeline: on each dataset/metric, -parallel 1, 2, and 8 must produce the
// exact same workload, trajectory, stats, and templates — with and without a
// live obs collector attached. Worker count is pure scheduling — every task
// draws from a stream derived from its position, and merges happen in task
// order — and observation is pure: attaching a collector must never perturb
// the run. The folded stable metric snapshot must also be identical across
// worker counts (volatile counters like plan-cache hits and opened sessions
// are excluded by Stable()). The tpch-measured case pins the same contract
// for a measured cost kind: RowsProcessed probes execute through concurrent
// sessions, and workload bytes, DB-call counts, and session-probe counts must
// still not move with the worker count.
func TestParallelByteIdentical(t *testing.T) {
	datasets := []struct {
		name   string
		open   func() *engine.DB
		kind   engine.CostKind
		faulty bool
	}{
		{"tpch", func() *engine.DB { return engine.OpenTPCH(17, 0.05) }, engine.Cardinality, false},
		{"imdb", func() *engine.DB { return engine.OpenIMDB(17, 0.05) }, engine.Cardinality, false},
		{"tpch-measured", func() *engine.DB { return engine.OpenTPCH(17, 0.02) }, engine.RowsProcessed, false},
		// tpch-faulty reruns the tpch case through a Retry+Faults resilience
		// chain: a 20% deterministic fault schedule with a retry budget above
		// the fault window must not move a single output byte at any worker
		// count, and the stable snapshot (which now carries llm_retries and
		// llm_faults_injected) must be identical too.
		{"tpch-faulty", func() *engine.DB { return engine.OpenTPCH(17, 0.05) }, engine.Cardinality, true},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			// run executes at the given worker count, optionally observed,
			// and returns the run signature plus the rendered stable metric
			// snapshot ("" when unobserved).
			run := func(parallel int, observed, faulty bool) (string, string) {
				db := ds.open()
				opts := []Option{WithSeed(17), WithCostKind(ds.kind), WithParallel(parallel)}
				if faulty {
					opts = append(opts, WithResilience(ResiliencePolicy{
						Retry:         llm.RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, Jitter: 0.3},
						FaultRate:     0.2,
						FaultAttempts: 2,
						FaultSeed:     17,
						Clock:         llm.NewFakeClock(),
					}))
				}
				var collector *obs.Collector
				if observed {
					collector = obs.NewCollector()
					opts = append(opts, WithObs(collector))
				}
				p, err := New(db, llm.NewSim(llm.SimOptions{Seed: 17}), smallSpecs(), stats.Uniform(0, 1200, 4, 40), opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Run(context.Background())
				if err != nil {
					t.Fatalf("parallel=%d observed=%v: %v", parallel, observed, err)
				}
				var metrics string
				if observed {
					var b strings.Builder
					if err := collector.Snapshot().Stable().WritePrometheus(&b); err != nil {
						t.Fatalf("parallel=%d: render stable snapshot: %v", parallel, err)
					}
					metrics = b.String()
				}
				return runSignature(res), metrics
			}
			seq, _ := run(1, false, ds.faulty)
			seqObserved, seqMetrics := run(1, true, ds.faulty)
			if seqObserved != seq {
				t.Fatalf("%s: attaching a collector changed the sequential run\n%s",
					ds.name, firstDiff(seq, seqObserved))
			}
			for _, par := range []int{2, 8} {
				if got, _ := run(par, false, ds.faulty); got != seq {
					t.Fatalf("%s: -parallel %d diverged from sequential\n%s",
						ds.name, par, firstDiff(seq, got))
				}
				got, metrics := run(par, true, ds.faulty)
				if got != seq {
					t.Fatalf("%s: -parallel %d with collector diverged from sequential\n%s",
						ds.name, par, firstDiff(seq, got))
				}
				if metrics != seqMetrics {
					t.Fatalf("%s: -parallel %d stable snapshot diverged from sequential\n%s",
						ds.name, par, firstDiff(seqMetrics, metrics))
				}
			}
			if ds.faulty {
				// Recovery by construction: the faulty chain must reproduce
				// the fault-free run byte for byte — faults burn retries,
				// never entropy.
				if clean, _ := run(1, false, false); clean != seq {
					t.Fatalf("%s: faulty run diverged from fault-free baseline\n%s",
						ds.name, firstDiff(clean, seq))
				}
				// And the test is not vacuous: the schedule actually fired.
				for _, metric := range []string{"sqlbarber_llm_faults_injected_total", "sqlbarber_llm_retries_total"} {
					if !metricNonZero(seqMetrics, metric) {
						t.Fatalf("%s: %s is zero or absent in the stable snapshot; fault injection never fired\n%s",
							ds.name, metric, seqMetrics)
					}
				}
			}
		})
	}
}

// TestParallelOverlapsOracleLatency checks what the worker pool buys when
// the oracle is slow: on the quick-scale TPC-H task (SF 0.5, the Redset
// specifications, five intervals over [0, 2500), 60 queries) with every
// simulated LLM call sleeping 25 ms like a hosted-model round trip, 4
// workers must finish at least 1.2x faster than 1, with the same run
// signature. It measures wall clock, so it is skipped under -short.
func TestParallelOverlapsOracleLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short mode")
	}
	run := func(workers int) (string, time.Duration) {
		db := engine.OpenTPCH(1, 0.5)
		start := time.Now()
		p, err := New(db, llm.NewSim(llm.SimOptions{Seed: 1, Latency: 25 * time.Millisecond}),
			realworld.RedsetSpecs(1), stats.Uniform(0, 2500, 5, 60),
			WithSeed(1), WithCostKind(engine.Cardinality), WithParallel(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return runSignature(res), time.Since(start)
	}
	seq, seqTime := run(1)
	par, parTime := run(4)
	if par != seq {
		t.Fatalf("4 workers diverged from 1\n%s", firstDiff(seq, par))
	}
	speedup := float64(seqTime) / float64(parTime)
	t.Logf("1 worker %s, 4 workers %s: %.2fx", seqTime.Round(time.Millisecond), parTime.Round(time.Millisecond), speedup)
	if speedup < 1.2 {
		t.Fatalf("4 workers only %.2fx faster than 1 (latency overlap broken)", speedup)
	}
}

// metricNonZero reports whether the rendered Prometheus snapshot carries the
// named sample with a value other than 0.
func metricNonZero(metrics, name string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		val, ok := strings.CutPrefix(line, name+" ")
		if ok && val != "0" {
			return true
		}
	}
	return false
}

// firstDiff trims two signatures to the first differing line for readable
// failures.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  seq: %s\n  par: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

//go:build unix

package pipeline

import (
	"context"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/stats"
)

// processCPUTime returns the process's cumulative user+system CPU time.
func processCPUTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkObsOverhead is the cost side of the observability contract
// (TestParallelByteIdentical holds the byte identity): attaching a live
// Collector must cost less than 3% process CPU on the same workload, the
// quick-scale TPC-H task at four times its query count (SF 0.5, the Redset
// specifications, five intervals over [0, 2500), 240 queries), so the timed
// run lasts a few hundred milliseconds.
//
// The statistic is built for a noisy shared machine. It compares process
// CPU time, not wall clock, because the collector's cost is CPU work. Each
// round runs both arms back to back with the garbage collector paused,
// alternating which arm goes first. The gate compares the fastest run per
// arm: noise only ever adds CPU time, so the minimum converges to each
// arm's floor. At least 3 rounds run, and more (up to 15) while the
// overhead is above budget.
//
//	go test -run '^$' -bench '^BenchmarkObsOverhead$' -benchtime 1x ./internal/pipeline
func BenchmarkObsOverhead(b *testing.B) {
	const (
		budgetPct = 3.0
		minRounds = 3
		maxRounds = 15
	)
	run := func(collector *obs.Collector) (string, time.Duration) {
		// A fresh database per run isolates the evaluation counters and
		// the plan cache, so every run does identical work.
		db := engine.OpenTPCH(1, 0.5)
		opts := []Option{WithSeed(1), WithCostKind(engine.Cardinality)}
		if collector != nil {
			opts = append(opts, WithObs(collector))
		}
		p, err := New(db, llm.NewSim(llm.SimOptions{Seed: 1}), realworld.RedsetSpecs(1), stats.Uniform(0, 2500, 5, 240), opts...)
		if err != nil {
			b.Fatal(err)
		}
		// Settle the dataset's GC debt, then pause the collector: the run
		// is about one GC cycle long, so a pause landing in one arm only
		// would swamp the cost under test.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		cpu0 := processCPUTime(b)
		res, err := p.Run(context.Background())
		cpu := processCPUTime(b) - cpu0
		if err != nil {
			b.Fatal(err)
		}
		return runSignature(res), cpu
	}
	var nopCPU, obsCPU time.Duration
	var overhead float64
	var rounds int
	for range b.N {
		overhead = 0
		for rounds = 0; rounds < maxRounds && (rounds < minRounds || overhead > budgetPct); rounds++ {
			var nopSig, obsSig string
			var nop, on time.Duration
			if rounds%2 == 0 {
				nopSig, nop = run(nil)
				obsSig, on = run(obs.NewCollector())
			} else {
				obsSig, on = run(obs.NewCollector())
				nopSig, nop = run(nil)
			}
			if nopSig != obsSig {
				b.Fatalf("attaching a collector changed the run\n%s", firstDiff(nopSig, obsSig))
			}
			if rounds == 0 {
				nopCPU, obsCPU = nop, on
			}
			nopCPU, obsCPU = min(nopCPU, nop), min(obsCPU, on)
			overhead = 100 * (float64(obsCPU) - float64(nopCPU)) / float64(nopCPU)
		}
	}
	b.ReportMetric(float64(nopCPU.Microseconds())/1000, "nop-cpu-ms")
	b.ReportMetric(float64(obsCPU.Microseconds())/1000, "obs-cpu-ms")
	b.ReportMetric(overhead, "overhead-%")
	b.ReportMetric(float64(rounds), "rounds")
	if overhead > budgetPct {
		b.Fatalf("collector CPU overhead %.2f%% after %d rounds exceeds the %.0f%% budget", overhead, rounds, budgetPct)
	}
}

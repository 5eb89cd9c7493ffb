package pipeline

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/stats"
)

// TestMeasuredJobAllocationDeterministic runs one RowsProcessed job four
// times after a warm-up run (which pays the process's one-time
// initialisation), each on a freshly opened database, at GOMAXPROCS=2 with
// the GC off, and requires every run to allocate the same bytes, up to
// runtimeSlack. Every measured probe borrows an execution session whose
// arena keeps scratch across probes, and every forest fit reuses an RF
// trainer, so which one a caller gets must depend on the order of the calls
// alone. A per-P sync.Pool (regexp keeps one for its matchers too, which is
// why placeholder substitution does not use one) hands a caller a cold one
// on one run and a warm one on the next: a pooled session moved this job by
// 62 to 291 KiB between runs.
func TestMeasuredJobAllocationDeterministic(t *testing.T) {
	// runtimeSlack absorbs what the Go runtime itself keeps per P or per
	// thread: the tiny allocator packs small objects into 16-byte blocks
	// per P, fmt pools its printers per P, and starting an OS thread
	// allocates about 5.5 KiB. Together they moved a run by at most 6 KiB
	// in 90 runs on linux/amd64 with go1.24.
	const runtimeSlack = 16 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var alloc [5]int64
	for i := range alloc {
		db := engine.OpenTPCH(17, 0.01)
		p, err := New(db, llm.NewSim(llm.SimOptions{Seed: 9}), smallSpecs(), stats.Uniform(0, 3000, 4, 24),
			WithSeed(9), WithCostKind(engine.RowsProcessed))
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		alloc[i] = int64(ms.TotalAlloc - before)
	}
	runs := alloc[1:]
	t.Logf("one RowsProcessed job allocates %v bytes (%d in the warm-up run)", runs, alloc[0])
	if lo, hi := slices.Min(runs), slices.Max(runs); hi-lo > runtimeSlack {
		t.Fatalf("the same job allocated between %d and %d bytes: %v", lo, hi, runs)
	}
}

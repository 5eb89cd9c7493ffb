package storage_test

import (
	"runtime"
	"testing"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/storage"
)

// BenchmarkAnalyze reports the absolute cost of one ANALYZE pass over every
// table of a generated dataset (the rows are built once, outside the
// timer). Run with -benchmem for B/op and allocs/op.
func BenchmarkAnalyze(b *testing.B) {
	for _, ds := range []struct {
		name string
		open func(seed int64, sf float64) *storage.Database
	}{
		{"tpch-sf0.5", datagen.TPCH},
		{"imdb-sf0.5", datagen.IMDB},
	} {
		db := ds.open(1, 0.5)
		b.Run(ds.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				db.Analyze()
			}
		})
	}
}

// TestAnalyzeAllocationCeiling holds ANALYZE of TPC-H SF 0.1 to a quarter of
// the bytes the map-counting ANALYZE it replaced allocated for the same
// call: 8,674,873 B on linux/amd64 with go1.24 (the sorted pass measured
// ~0.5 MB there). Reusing the typed sort buffers across columns is what
// keeps it low; a per-column copy or a per-value map would break it.
func TestAnalyzeAllocationCeiling(t *testing.T) {
	const ceiling = 8674873 / 4
	db := datagen.TPCH(1, 0.1)
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		db.Analyze()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Analyze of TPC-H SF 0.1: %d bytes per call, ceiling %d", perCall, ceiling)
	if perCall > ceiling {
		t.Fatalf("Analyze of TPC-H SF 0.1 allocates %d bytes per call, ceiling %d", perCall, ceiling)
	}
}

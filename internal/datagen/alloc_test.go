package datagen

import (
	"fmt"
	"runtime"
	"testing"

	"sqlbarber/internal/storage"
)

// TestBuildAllocationCeiling holds building a dataset to the column layout's
// allocations: one vector per column plus one string per generated name or
// comment, and a fixed remainder (the catalog, the per-table rng sources,
// ANALYZE's MCV lists and histograms). At SF 0.1 on linux/amd64 with go1.24
// TPC-H measured about 835 objects and 1.19 MB per build, IMDB 6,180
// objects and 1.08 MB (bytes vary by 2% from run to run); the row store they
// replaced allocated a Row per row, 11,179 and 32,147 objects and 4.4 MB
// each. The ceilings are the measurements plus 25%; a Row per row would add
// 8,690 (TPC-H) and about 15,000 (IMDB) objects.
func TestBuildAllocationCeiling(t *testing.T) {
	for _, tc := range []struct {
		name           string
		build          func(seed int64, sf float64) *storage.Database
		objects, bytes uint64
	}{
		{"tpch", TPCH, 835 * 5 / 4, 1_190_000 * 5 / 4},
		{"imdb", IMDB, 6180 * 5 / 4, 1_080_000 * 5 / 4},
	} {
		tc.build(1, 0.1) // warm: one-time initialisation is not the build's
		const runs = 3
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tc.build(1, 0.1)
		}
		runtime.ReadMemStats(&after)
		objects := (after.Mallocs - before.Mallocs) / runs
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s SF 0.1: %d objects, %d bytes per build; ceilings %d and %d", tc.name, objects, bytes, tc.objects, tc.bytes)
		if objects > tc.objects || bytes > tc.bytes {
			t.Errorf("%s SF 0.1 build allocates %d objects and %d bytes, ceilings %d and %d", tc.name, objects, bytes, tc.objects, tc.bytes)
		}
	}
}

// TestNumberedMatchesSprintf pins numbered to the fmt verb it replaces.
func TestNumberedMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 100, 12345, 1234567, 123456789} {
		for _, width := range []int{2, 3, 6, 8} {
			if got, want := numbered("p#", n, width, " s"), fmt.Sprintf("%s%0*d%s", "p#", width, n, " s"); got != want {
				t.Errorf("numbered(%d, %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}

package workload

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"sqlbarber/internal/profiler"
	"sqlbarber/internal/stats"
)

// observations wraps costs as profile observations.
func observations(costs ...float64) []profiler.Observation {
	out := make([]profiler.Observation, len(costs))
	for i, c := range costs {
		out[i].Cost = c
	}
	return out
}

func TestClosenessPrefersNearbyTemplates(t *testing.T) {
	iv := stats.Interval{Lo: 100, Hi: 200}
	near := Closeness(observations(120, 150, 180), iv)
	far := Closeness(observations(5000, 6000, 7000), iv)
	if near <= far {
		t.Fatalf("closeness near=%v far=%v", near, far)
	}
	// Costs inside the interval give the maximum proximity term.
	if near != 1.0 {
		t.Fatalf("all-inside distinct costs must score 1.0, got %v", near)
	}
}

func TestClosenessPenalizesLowVariety(t *testing.T) {
	iv := stats.Interval{Lo: 100, Hi: 200}
	diverse := Closeness(observations(110, 150, 190), iv)
	constant := Closeness(observations(150, 150, 150), iv)
	if constant >= diverse {
		t.Fatalf("variety penalty broken: const=%v diverse=%v", constant, diverse)
	}
}

func TestClosenessEmpty(t *testing.T) {
	if Closeness(nil, stats.Interval{Lo: 0, Hi: 1}) != 0 {
		t.Fatal("empty costs must score 0")
	}
}

func TestVariety(t *testing.T) {
	if Variety(observations(1, 1, 1, 1)) != 0.25 {
		t.Fatal("variety of constant vector")
	}
	if Variety(observations(1, 2, 3, 4)) != 1 {
		t.Fatal("variety of distinct vector")
	}
	if Variety(nil) != 0 {
		t.Fatal("variety of empty")
	}
}

func TestClosenessBoundedProperty(t *testing.T) {
	iv := stats.Interval{Lo: 50, Hi: 150}
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		costs := make([]float64, len(raw))
		for i, r := range raw {
			costs[i] = float64(r)
		}
		c := Closeness(observations(costs...), iv)
		return c >= 0 && c <= 1 && !math.IsNaN(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func queriesFor(costs []float64) []Query {
	out := make([]Query, len(costs))
	for i, c := range costs {
		out[i] = Query{SQL: fmt.Sprintf("q%d", i), Cost: c}
	}
	return out
}

func TestSelectWorkloadQuota(t *testing.T) {
	target := stats.Uniform(0, 100, 4, 8) // 2 per interval
	queries := queriesFor([]float64{5, 10, 15, 30, 40, 55, 60, 65, 80, 90, 99})
	sel := SelectWorkload(queries, target)
	if len(sel) != 8 {
		t.Fatalf("selected %d, want 8", len(sel))
	}
	counts := target.Intervals.CountInto(costsOf(sel))
	for j, c := range counts {
		if c != 2 {
			t.Fatalf("interval %d got %d queries: %v", j, c, counts)
		}
	}
}

func TestSelectWorkloadDeduplicates(t *testing.T) {
	target := stats.Uniform(0, 100, 1, 3)
	dup := []Query{{SQL: "same", Cost: 10}, {SQL: "same", Cost: 12}, {SQL: "other", Cost: 20}}
	sel := SelectWorkload(dup, target)
	if len(sel) != 2 {
		t.Fatalf("dedup failed: %d selected", len(sel))
	}
}

func TestSelectWorkloadShortfall(t *testing.T) {
	target := stats.Uniform(0, 100, 2, 10)
	sel := SelectWorkload(queriesFor([]float64{10, 20}), target)
	if len(sel) != 2 {
		t.Fatalf("selected %d with only 2 available", len(sel))
	}
}

func TestDistanceZeroOnExactMatch(t *testing.T) {
	target := stats.Uniform(0, 100, 4, 8)
	queries := queriesFor([]float64{5, 10, 30, 40, 55, 60, 80, 90})
	if d := Distance(queries, target); d != 0 {
		t.Fatalf("distance = %v", d)
	}
}

func TestDistancePositiveOnMismatch(t *testing.T) {
	target := stats.Uniform(0, 100, 4, 8)
	queries := queriesFor([]float64{5, 6, 7, 8, 9, 10, 11, 12}) // all in interval 0
	if d := Distance(queries, target); d <= 0 {
		t.Fatalf("distance = %v", d)
	}
}

func TestQueriesByInterval(t *testing.T) {
	ivs := stats.SplitRange(0, 100, 2)
	byIv := QueriesByInterval(queriesFor([]float64{10, 60, 70, 500}), ivs)
	if len(byIv[0]) != 1 || len(byIv[1]) != 2 {
		t.Fatalf("binning: %v", byIv)
	}
}

func costsOf(qs []Query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = q.Cost
	}
	return out
}

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
	var s Scorer
	near, _ := s.Closeness(observations(120, 150, 180), iv)
	far, _ := s.Closeness(observations(5000, 6000, 7000), iv)
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
	var s Scorer
	diverse, _ := s.Closeness(observations(110, 150, 190), iv)
	constant, _ := s.Closeness(observations(150, 150, 150), iv)
	if constant >= diverse {
		t.Fatalf("variety penalty broken: const=%v diverse=%v", constant, diverse)
	}
}

func TestClosenessEmpty(t *testing.T) {
	if score, variety := new(Scorer).Closeness(nil, stats.Interval{Lo: 0, Hi: 1}); score != 0 || variety != 0 {
		t.Fatal("empty costs must score 0")
	}
}

func TestVariety(t *testing.T) {
	var s Scorer
	if s.variety(observations(1, 1, 1, 1)) != 0.25 {
		t.Fatal("variety of constant vector")
	}
	if s.variety(observations(1, 2, 3, 4)) != 1 {
		t.Fatal("variety of distinct vector")
	}
	if s.variety(nil) != 0 {
		t.Fatal("variety of empty")
	}
}

// TestVarietyCountsLikeMapKeys checks the sorted distinct count against a
// map[float64] key count, the definition it replaced, bit for bit: every NaN
// is its own value, +0 and -0 are one, and the reused scratch carries nothing
// from one call to the next.
func TestVarietyCountsLikeMapKeys(t *testing.T) {
	mapVariety := func(costs []float64) float64 {
		unique := map[float64]bool{}
		for _, c := range costs {
			unique[c] = true
		}
		return float64(len(unique)) / float64(len(costs))
	}
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1}
	var s Scorer
	f := func(picks []uint8) bool {
		if len(picks) == 0 {
			return true
		}
		costs := make([]float64, len(picks))
		for i, p := range picks {
			if int(p) < len(special) {
				costs[i] = special[p]
			} else {
				costs[i] = float64(p % 16)
			}
		}
		got, want := s.variety(observations(costs...)), mapVariety(costs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("costs %v: variety %v, map count gives %v", costs, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
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
		c, _ := new(Scorer).Closeness(observations(costs...), iv)
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

func TestPoolCountsPerInterval(t *testing.T) {
	p := NewPool(&stats.TargetDistribution{Intervals: stats.SplitRange(0, 100, 2), Counts: []int{1, 1}})
	for _, q := range queriesFor([]float64{10, 60, 70, 500}) {
		p.Add(q)
	}
	if p.Count(0) != 1 || p.Count(1) != 2 {
		t.Fatalf("counts %d, %d; want 1, 2 (uncapped, 500 out of range)", p.Count(0), p.Count(1))
	}
	if p.Add(Query{SQL: "q1", Cost: 61}) || !p.Add(Query{SQL: "q1", Cost: 10}) {
		t.Fatal("a SQL text must count once per interval, and again in another interval")
	}
}

// referenceSelect is SelectWorkload as it stood before Pool: bin every
// query by interval, then take each interval's first Counts[j] distinct SQL
// texts, in interval order.
func referenceSelect(queries []Query, target *stats.TargetDistribution) []Query {
	byIv := make([][]Query, len(target.Intervals))
	for _, q := range queries {
		if j := target.Intervals.Index(q.Cost); j >= 0 {
			byIv[j] = append(byIv[j], q)
		}
	}
	var out []Query
	for j, want := range target.Counts {
		seen := map[string]bool{}
		taken := 0
		for _, q := range byIv[j] {
			if taken >= want {
				break
			}
			if seen[q.SQL] {
				continue
			}
			seen[q.SQL] = true
			out = append(out, q)
			taken++
		}
	}
	return out
}

// poolCase decodes fuzz input into a target and a query list. shape[0]
// picks one to six intervals over [0, 100) and each later shape byte one
// quota of 0-3. data is read as (sql, cost) byte pairs: sql picks one of
// eight SQL texts, so repeats are common; a cost byte below 220 is c/2, in
// and past the range with the top interval's Hi (100) among them, and the
// rest are -1, NaN or +Inf.
func poolCase(shape, data []byte) (*stats.TargetDistribution, []Query) {
	n := 1
	if len(shape) > 0 {
		n += int(shape[0]) % 6
	}
	counts := make([]int, n)
	for j := range counts {
		if j+1 < len(shape) {
			counts[j] = int(shape[j+1]) % 4
		}
	}
	target := &stats.TargetDistribution{Intervals: stats.SplitRange(0, 100, n), Counts: counts}
	var qs []Query
	for i := 0; i+1 < len(data); i += 2 {
		c := float64(data[i+1]) / 2
		switch {
		case data[i+1] >= 250:
			c = math.Inf(1)
		case data[i+1] >= 240:
			c = math.NaN()
		case data[i+1] >= 220:
			c = -1
		}
		qs = append(qs, Query{SQL: fmt.Sprintf("q%d", data[i]%8), Cost: c, TemplateID: i / 2})
	}
	return target, qs
}

// FuzzPoolMatchesReference checks that a Pool fed a query list in order
// assembles referenceSelect's workload element by element, counts each
// interval's distinct SQL texts uncapped, and reports exactly (==) the
// Distance of the reference workload.
func FuzzPoolMatchesReference(f *testing.F) {
	f.Add([]byte{3, 2, 2, 2}, []byte{0, 10, 0, 10, 1, 10, 2, 10, 3, 10})  // duplicates, quota overflow
	f.Add([]byte{1, 1, 1}, []byte{0, 230, 1, 219, 2, 245, 3, 255, 4, 50}) // out of range, NaN, +Inf
	f.Add([]byte{3, 1, 0, 3, 1}, []byte{0, 200, 1, 200, 2, 199, 0, 200})  // the top interval's Hi
	f.Add([]byte{1, 2, 2}, []byte{5, 20, 5, 150, 5, 30, 6, 150})          // one SQL in two intervals
	f.Add([]byte{0, 0}, []byte{})
	f.Fuzz(func(t *testing.T, shape, data []byte) {
		target, qs := poolCase(shape, data)
		want := referenceSelect(qs, target)
		p := NewPool(target)
		for _, q := range qs {
			p.Add(q)
		}
		got := p.Workload()
		if len(got) != len(want) {
			t.Fatalf("workload has %d queries, reference %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.SQL != w.SQL || g.TemplateID != w.TemplateID || math.Float64bits(g.Cost) != math.Float64bits(w.Cost) {
				t.Fatalf("query %d is %+v, reference %+v", i, g, w)
			}
		}
		if d, ref := p.Distance(), Distance(want, target); d != ref {
			t.Fatalf("Distance() = %v, Distance(reference) = %v", d, ref)
		}
		for j := range target.Intervals {
			distinct := map[string]bool{}
			for _, q := range qs {
				if target.Intervals.Index(q.Cost) == j {
					distinct[q.SQL] = true
				}
			}
			if p.Count(j) != len(distinct) {
				t.Fatalf("Count(%d) = %d, %d distinct SQL texts in the interval", j, p.Count(j), len(distinct))
			}
		}
		if sel := SelectWorkload(qs, target); len(sel) != len(got) {
			t.Fatalf("SelectWorkload has %d queries, the pool's workload %d", len(sel), len(got))
		}
	})
}

func costsOf(qs []Query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = q.Cost
	}
	return out
}

package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic clock advancing by step per call.
func fakeClock(step time.Duration) func() time.Time {
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * step)
	}
}

// TestCollectorSpanTree checks span hierarchy, offsets, durations, and
// completion-time annotations as recorded in the event stream.
func TestCollectorSpanTree(t *testing.T) {
	c := NewCollector(WithClock(fakeClock(time.Millisecond)))
	run := c.StartSpan("run", A("seed", "17"))
	stage := run.StartSpan("stage:generate")
	stage.Annotate(A("templates", "4"))
	stage.End()
	stage.End() // idempotent
	run.End()

	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (2 starts + 2 ends): %+v", len(evs), evs)
	}
	if evs[0].Kind != KindSpanStart || evs[0].Name != "run" || evs[0].Parent != 0 {
		t.Fatalf("bad root start: %+v", evs[0])
	}
	if evs[1].Kind != KindSpanStart || evs[1].Parent != evs[0].Span {
		t.Fatalf("child span must point at root: %+v", evs[1])
	}
	if evs[2].Kind != KindSpanEnd || evs[2].Name != "stage:generate" {
		t.Fatalf("bad child end: %+v", evs[2])
	}
	if len(evs[2].Attrs) != 1 || evs[2].Attrs[0].Key != "templates" {
		t.Fatalf("annotation must ride on span_end: %+v", evs[2].Attrs)
	}
	if evs[2].Dur <= 0 || evs[3].Dur <= evs[2].Dur {
		t.Fatalf("durations not monotone: child=%v root=%v", evs[2].Dur, evs[3].Dur)
	}
	if evs[0].At != 0 {
		t.Fatalf("first event offset must be zero, got %v", evs[0].At)
	}
}

// TestCollectorMetrics checks counters (registered and bound), gauges,
// histogram bucketing, and the Stable() volatile filter.
func TestCollectorMetrics(t *testing.T) {
	c := NewCollector()
	c.Count("a", 2)
	c.Count("a", 3)
	c.Gauge("g", 1.5)
	for _, v := range []float64{1, 2, 3, 600} {
		c.Observe("h", v)
	}

	var owned Counter
	owned.Add(7)
	c.BindCounter("bound_ok", &owned, false)
	var cacheHits Counter
	cacheHits.Add(9)
	c.BindCounter("cache_hits", &cacheHits, true)

	s := c.Snapshot()
	if got := s.Counter("a"); got != 5 {
		t.Fatalf("counter a = %d, want 5", got)
	}
	if got := s.Counter("bound_ok"); got != 7 {
		t.Fatalf("bound counter = %d, want 7", got)
	}
	// Bound counters are read live: later adds show in later snapshots.
	owned.Add(1)
	if got := c.Snapshot().Counter("bound_ok"); got != 8 {
		t.Fatalf("bound counter after Add = %d, want 8", got)
	}
	if v, ok := s.Gauge("g"); !ok || v != 1.5 {
		t.Fatalf("gauge g = %v,%v want 1.5,true", v, ok)
	}

	if len(s.Histograms) != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if h.Count != 4 || h.Sum != 606 {
		t.Fatalf("histogram count=%d sum=%g, want 4, 606", h.Count, h.Sum)
	}
	// le semantics: 1 falls in bucket le=1, 2 in le=2, 3 in le=4, 600 in +Inf.
	wantCounts := map[int]int64{0: 1, 1: 1, 2: 1, len(DefaultBuckets): 1}
	for i, n := range h.Counts {
		if n != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, n, wantCounts[i], h.Counts)
		}
	}

	stable := s.Stable()
	if got := stable.Counter("cache_hits"); got != 0 {
		t.Fatalf("volatile counter leaked into stable snapshot: %d", got)
	}
	if got := stable.Counter("bound_ok"); got != 7 {
		t.Fatalf("non-volatile bound counter missing from stable snapshot: %d", got)
	}
}

// TestRegisteredCounterShadowsBound: when the same name is both registered
// via Count and bound, the registered counter wins in the snapshot (one value
// per name).
func TestRegisteredCounterShadowsBound(t *testing.T) {
	c := NewCollector()
	var ext Counter
	ext.Add(100)
	c.BindCounter("x", &ext, false)
	c.Count("x", 1)
	s := c.Snapshot()
	n := 0
	for _, cp := range s.Counters {
		if cp.Name == "x" {
			n++
			if cp.Value != 1 {
				t.Fatalf("registered counter must shadow bound: got %d", cp.Value)
			}
		}
	}
	if n != 1 {
		t.Fatalf("name x appears %d times in snapshot, want 1", n)
	}
}

// TestNilCounterIsNoop: nil *Counter must absorb all operations.
func TestNilCounterIsNoop(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Store(2)
	if c.Load() != 0 {
		t.Fatal("nil counter must load 0")
	}
}

// TestFromContextDefaultsToNop checks context plumbing.
func TestFromContextDefaultsToNop(t *testing.T) {
	if FromContext(t.Context()) != Nop {
		t.Fatal("no sink attached must yield Nop")
	}
	c := NewCollector()
	ctx := NewContext(t.Context(), c)
	if FromContext(ctx) != Sink(c) {
		t.Fatal("attached sink not returned")
	}
	ctx2, sp := StartSpan(ctx, "child")
	defer sp.End()
	if FromContext(ctx2) != Sink(sp) {
		t.Fatal("StartSpan must rebind the context sink to the span")
	}
}

// TestOnEventTee checks the tee adapter sees events emitted through the
// wrapped sink and through spans derived from it, and forwards them inward.
func TestOnEventTee(t *testing.T) {
	c := NewCollector()
	var seen []Event
	tee := OnEvent(c, func(e Event) { seen = append(seen, e) })
	tee.Emit(Event{Kind: KindProgress, Name: "distance", Value: 3})
	sp := tee.StartSpan("stage")
	sp.Emit(Event{Kind: KindMark, Name: "checkpoint"})
	child := sp.StartSpan("task")
	child.Emit(Event{Kind: KindProgress, Name: "distance", Value: 1})
	child.End()
	sp.End()
	if len(seen) != 3 {
		t.Fatalf("tee saw %d events, want 3: %+v", len(seen), seen)
	}
	// All events must also have reached the collector (plus 2 span starts
	// and 2 span ends).
	if got := len(c.Events()); got != 7 {
		t.Fatalf("collector recorded %d events, want 7", got)
	}
	// Counter adoption passes through the tee to the collector; a tee over
	// a sink that adopts nothing offers no Binder.
	b, ok := tee.(Binder)
	if !ok {
		t.Fatal("a tee over a Collector must forward Binder")
	}
	if _, ok := tee.(HistogramMarker); !ok {
		t.Fatal("a tee over a Collector must forward HistogramMarker")
	}
	var n Counter
	n.Add(5)
	b.BindCounter("tee_bound", &n, false)
	if got := c.Snapshot().Counter("tee_bound"); got != 5 {
		t.Fatalf("counter bound through the tee reads %d in the snapshot, want 5", got)
	}
	if _, ok := OnEvent(Nop, func(Event) {}).(Binder); ok {
		t.Fatal("a tee over Nop must not claim to adopt counters")
	}
}

// TestWriteJSONL pins the exporter's line format.
func TestWriteJSONL(t *testing.T) {
	c := NewCollector(WithClock(fakeClock(time.Millisecond)))
	sp := c.StartSpan("run", A("b", "2"), A("a", "1"))
	sp.Emit(Event{Kind: KindProgress, Name: "distance", Value: 2.5})
	sp.End()
	var b strings.Builder
	if err := c.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"span_start","at_us":0,"span":1,"parent":0,"name":"run","attrs":{"a":"1","b":"2"}}
{"ev":"progress","at_us":1000,"span":1,"name":"distance","value":2.5}
{"ev":"span_end","at_us":2000,"span":1,"parent":0,"name":"run","dur_us":2000}
`
	if b.String() != want {
		t.Fatalf("JSONL mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
}

// TestWritePrometheus pins the text exposition format, including cumulative
// histogram buckets.
func TestWritePrometheus(t *testing.T) {
	c := NewCollector()
	c.Count("db_explain_calls", 12)
	c.Gauge("workload_distance", 0.25)
	c.Observe("generator_attempts_per_template", 1)
	c.Observe("generator_attempts_per_template", 3)
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sqlbarber_db_explain_calls_total counter\nsqlbarber_db_explain_calls_total 12\n",
		"# TYPE sqlbarber_workload_distance gauge\nsqlbarber_workload_distance 0.25\n",
		`sqlbarber_generator_attempts_per_template_bucket{le="1"} 1`,
		`sqlbarber_generator_attempts_per_template_bucket{le="4"} 2`,
		`sqlbarber_generator_attempts_per_template_bucket{le="+Inf"} 2`,
		"sqlbarber_generator_attempts_per_template_sum 4\n",
		"sqlbarber_generator_attempts_per_template_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestRollup checks span_end folding by name.
func TestRollup(t *testing.T) {
	c := NewCollector(WithClock(fakeClock(time.Millisecond)))
	a := c.StartSpan("slow")
	b1 := c.StartSpan("fast")
	b1.End()
	b2 := c.StartSpan("fast")
	b2.End()
	a.End()
	rs := c.Rollup()
	if len(rs) != 2 {
		t.Fatalf("rollup: %+v", rs)
	}
	if rs[0].Name != "slow" || rs[0].Count != 1 {
		t.Fatalf("rollup must sort by total desc: %+v", rs)
	}
	if rs[1].Name != "fast" || rs[1].Count != 2 || rs[1].Max > rs[1].Total {
		t.Fatalf("bad fast rollup: %+v", rs[1])
	}
}

// TestCollectorConcurrentUse exercises the collector from many goroutines
// under the race detector and checks totals are exact.
func TestCollectorConcurrentUse(t *testing.T) {
	c := NewCollector()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := c.StartSpan("worker")
			defer sp.End()
			for i := 0; i < perWorker; i++ {
				sp.Count("n", 1)
				sp.Observe("h", float64(i%8))
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if got := s.Counter("n"); got != workers*perWorker {
		t.Fatalf("counter n = %d, want %d", got, workers*perWorker)
	}
	if s.Histograms[0].Count != workers*perWorker {
		t.Fatalf("histogram n = %d, want %d", s.Histograms[0].Count, workers*perWorker)
	}
	if got := len(c.Rollup()); got != 1 {
		t.Fatalf("rollup groups = %d, want 1", got)
	}
}

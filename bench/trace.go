package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sqlbarber/internal/analyzer/intervals"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/rf"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/storage"
	"sqlbarber/internal/workload"
)

// ledger accumulates per-layer samples: mean(name) is the mean of every
// value added under name.
type ledger struct {
	sum map[string]float64
	n   map[string]int
}

func newLedger() ledger { return ledger{sum: map[string]float64{}, n: map[string]int{}} }

func (l ledger) add(name string, v float64) {
	l.sum[name] += v
	l.n[name]++
}

func (l ledger) mean(name string) sample {
	if l.n[name] == 0 {
		return sample{}
	}
	return sample{l.sum[name] / float64(l.n[name]), l.n[name]}
}

// ratio is sum(num)/sum(den) over every added sample.
func (l ledger) ratio(num, den string) sample {
	if l.sum[den] == 0 {
		return sample{0, l.n[den]}
	}
	return sample{l.sum[num] / l.sum[den], l.n[den]}
}

// tableRow is one line of the where-the-time-goes table: a layer's self
// time per job.
type tableRow struct {
	layer string
	ms    float64
}

// tracer builds the per-layer ledger of a -trace 1 run. For each job it
// reruns the job with an obs collector attached (the paired untraced run
// supplies every timing the collector could distort), folds the spans into
// self times, and replays public layer functions on the job's own outputs.
type tracer struct {
	l ledger

	jobs             int
	traced, untraced time.Duration
	self             map[string]time.Duration
	calls            []time.Duration

	dump     *os.File
	storeDir string
	store    *storage.ArtifactStore
}

// newTracer prepares the JSONL span dump under <workDir>/trace and the
// artifact store replays write to.
func newTracer(w workloadDef, o runOpts) (*tracer, error) {
	dir := filepath.Join(o.workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dump, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed)))
	if err != nil {
		return nil, err
	}
	t := &tracer{l: newLedger(), self: map[string]time.Duration{}, dump: dump}
	if t.storeDir, err = os.MkdirTemp(o.workDir, "replay-*"); err == nil {
		t.store, err = storage.OpenArtifactStore(t.storeDir)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// close flushes the span dump and removes the replay store.
func (t *tracer) close() {
	if err := t.dump.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: closing span dump: %v\n", err)
	}
	if t.storeDir != "" {
		os.RemoveAll(t.storeDir)
	}
}

// stageMetric maps a pipeline stage name to its per-layer metric.
func stageMetric(stage string) string {
	return "pipeline." + strings.ReplaceAll(stage, "-", "_") + "_ms"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// job traces job i of workload w: j is its untraced run and recost how long
// the checker took to re-cost its workload. It returns why the traced rerun
// is wrong ("" when it is right).
func (t *tracer) job(ctx context.Context, db *engine.DB, w workloadDef, target *stats.TargetDistribution, i int, seed int64, j *batchJob, recost time.Duration) (string, error) {
	col := obs.NewCollector()
	tj, err := runBatchJob(ctx, db, w, target, seed, w.lat, col)
	if err != nil {
		return "traced rerun: " + err.Error(), nil
	}
	if workloadHash(tj.res.Workload) != workloadHash(j.res.Workload) {
		return "traced rerun delivered a different workload", nil
	}
	if err := col.WriteJSONL(t.dump); err != nil {
		return "", fmt.Errorf("writing span dump: %w", err)
	}
	t.jobs++
	t.untraced += j.wall
	t.traced += tj.wall

	// Timings and counters from the untraced run.
	for _, st := range j.res.StageTimings {
		t.l.add(stageMetric(st.Stage), ms(st.Elapsed))
	}
	t.l.add("engine.explain_calls", float64(j.db.explain))
	t.l.add("engine.exec_calls", float64(j.db.exec))
	t.l.add("engine.validate_calls", float64(j.db.validate))
	t.l.add("engine.session_probes", float64(j.db.sessionProbes))
	t.l.add("cache.hits", float64(j.db.cacheHits))
	t.l.add("cache.lookups", float64(j.db.cacheHits+j.db.cacheMisses))
	t.l.add("llm.calls", float64(j.llmCalls))
	t.l.add("llm.tokens", float64(j.llmTokens))
	calls := j.oracleCalls.snapshot()
	var busy time.Duration
	for _, d := range calls {
		busy += d
	}
	t.calls = append(t.calls, calls...)
	t.l.add("llm.busy_ms", ms(busy))
	t.l.add("runtime.gc_cycles", float64(j.gc1.cycles-j.gc0.cycles))
	t.l.add("gc.cpu", j.gc1.gcCPU-j.gc0.gcCPU)
	t.l.add("total.cpu", j.gc1.totalCPU-j.gc0.totalCPU)
	if n := len(j.res.Workload); n > 0 {
		t.l.add("engine.recost_us", us(recost)/float64(n))
	}

	// Spans and counters from the traced rerun.
	self, count := spanSelfTimes(col.Events())
	for name, d := range self {
		t.self[name] += d
	}
	t.l.add("search.slot_self_ms", ms(self["search:slot"]))
	t.l.add("search.slots", float64(count["search:slot"]))
	t.l.add("profiler.self_ms", ms(self["profile"]))
	t.l.add("refine.iteration_self_ms", ms(self["refine:iteration"]))
	t.l.add("generator.attempt_self_ms", ms(self["attempt"]))
	snap := col.Snapshot()
	t.l.add("generator.attempts", float64(snap.Counter(obs.MGenAttempts)))
	t.l.add("analyzer.static_catches", float64(snap.Counter(obs.MStaticSpecCatches)+snap.Counter(obs.MStaticExecCatches)))
	t.l.add("intervals.probes_saved", float64(snap.Counter(obs.MIntervalsProbesSaved)))
	for _, h := range snap.Histograms {
		if h.Name == obs.HProfileProbes {
			t.l.add("profiler.probes", h.Sum)
		}
	}
	r := tj.res
	t.l.add("search.rounds", float64(r.SearchStats.Rounds))
	t.l.add("search.evals", float64(r.SearchStats.Evaluations))
	t.l.add("yield.queries", float64(len(r.Workload)))
	t.l.add("yield.evals", float64(r.DBCalls))
	t.l.add("refine.generated", float64(r.RefineStats.Generated))
	t.l.add("refine.accepted", float64(r.RefineStats.Accepted))
	t.l.add("intervals.pruned", float64(len(r.PrunedTemplates)))
	for _, gr := range r.GenResults {
		t.l.add("gen.total", 1)
		if gr.Valid {
			t.l.add("gen.valid", 1)
		}
	}
	return "", t.replay(ctx, db, w.kind, target, i, seed, r)
}

// Replay caps keep the replays of one job well under the job's own time.
const (
	replayTemplates = 16  // templates whose forest is refit
	replayFitRows   = 128 // most recent observations a refit trains on
	replayProbes    = 32  // probes replayed per template
)

// replay times public layer functions on job i's own outputs, outside any
// timed region: forest fit and batched prediction on each searched
// template's observations, compiled probes on its recorded values, the
// interval analysis of each generated template, workload selection over
// every observed query, and artifact storage of the delivered workload.
func (t *tracer) replay(ctx context.Context, db *engine.DB, kind engine.CostKind, target *stats.TargetDistribution, i int, seed int64, r *pipeline.Result) error {
	rng := rand.New(rand.NewSource(seed))
	var ms0, ms1 runtime.MemStats
	fits := 0
	var probes int
	var probeTime time.Duration
	for _, st := range r.Templates {
		p := st.Profile
		if p.Space == nil || len(p.Space.Dims) == 0 {
			continue
		}
		var raws [][]float64
		var costs []float64
		for _, ob := range p.Obs {
			if ob.Raw != nil {
				raws = append(raws, ob.Raw)
				costs = append(costs, ob.Cost)
			}
		}
		if len(raws) == 0 {
			continue
		}
		if p.Prep != nil {
			batch := mapSlice(raws[:min(len(raws), replayProbes)], p.Space.ValuesFor)
			t0 := time.Now()
			got, _ := p.Prep.CostBatch(ctx, batch, kind)
			probeTime += time.Since(t0)
			probes += len(got)
		}
		if len(raws) < 4 || fits >= replayTemplates {
			continue
		}
		fits++
		from := max(0, len(raws)-replayFitRows)
		X := mapSlice(raws[from:], p.Space.BOSpace().Normalize)
		y := costs[from:]
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		f := rf.Train(rng, X, y, rf.Options{Workers: 1})
		fit := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		t.l.add("rf.fit_us", us(fit))
		t.l.add("rf.fit_allocs", float64(ms1.Mallocs-ms0.Mallocs))
		cands := make([][]float64, 64)
		for k := range cands {
			cands[k] = X[k%len(X)]
		}
		means, stds := make([]float64, len(cands)), make([]float64, len(cands))
		t0 = time.Now()
		f.PredictBatch(cands, means, stds)
		t.l.add("rf.predict64_us", us(time.Since(t0)))
	}
	if probes > 0 {
		t.l.add("engine.probe_us", us(probeTime)/float64(probes))
	}

	for _, gr := range r.GenResults {
		if !gr.Valid || gr.Template == nil {
			continue
		}
		t0 := time.Now()
		intervals.Analyze(db.Schema(), gr.Template, kind, target)
		t.l.add("intervals.analyze_us", us(time.Since(t0)))
	}

	var pool []workload.Query
	for _, st := range r.Templates {
		for _, ob := range st.Profile.Obs {
			pool = append(pool, workload.Query{SQL: ob.SQL, Cost: ob.Cost, TemplateID: st.Profile.Template.ID})
		}
	}
	t0 := time.Now()
	workload.Distance(workload.SelectWorkload(pool, target), target)
	t.l.add("workload.select_ms", ms(time.Since(t0)))

	name := fmt.Sprintf("job-%d.json", i)
	t0 = time.Now()
	if err := t.store.Put(name, workload.NewManifest(kind.String(), target, r.Workload).WriteJSON); err != nil {
		return err
	}
	t.l.add("storage.put_ms", ms(time.Since(t0)))
	path := filepath.Join(t.storeDir, name)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.l.add("storage.artifact_kb", float64(fi.Size())/1024)
	return os.Remove(path)
}

// mapSlice applies f to every element of xs.
func mapSlice[S, T any](xs []S, f func(S) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// finish turns the ledger into the report's per-layer metrics and ranked
// table.
func (t *tracer) finish(rep *report) {
	for _, d := range perLayer {
		rep.metrics[d.name] = t.l.mean(d.name)
	}
	rep.metrics["search.yield"] = t.l.ratio("yield.queries", "yield.evals")
	rep.metrics["engine.plan_cache_hit_ratio"] = t.l.ratio("cache.hits", "cache.lookups")
	rep.metrics["refine.accept_ratio"] = t.l.ratio("refine.accepted", "refine.generated")
	rep.metrics["generator.valid_ratio"] = t.l.ratio("gen.valid", "gen.total")
	rep.metrics["runtime.gc_cpu_share"] = t.l.ratio("gc.cpu", "total.cpu")
	if len(t.calls) > 0 {
		ds := mapSlice(t.calls, ms)
		rep.set("llm.call_ms_p50", quantile(ds, 0.5), len(ds))
		rep.set("llm.call_ms_p99", quantile(ds, 0.99), len(ds))
	}
	if t.jobs == 0 || t.untraced == 0 {
		return
	}
	rep.set("bench.trace_overhead", float64(t.traced)/float64(t.untraced)-1, t.jobs)
	for name, d := range t.self {
		rep.table = append(rep.table, tableRow{name, ms(d) / float64(t.jobs)})
	}
	rep.jobMS = ms(t.traced) / float64(t.jobs)
	evals := t.l.mean("yield.evals").value
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced job %.1f ms (untraced %.1f ms), n=%d; span dump %s", rep.jobMS, ms(t.untraced)/float64(t.jobs), t.jobs, t.dump.Name()),
		fmt.Sprintf("engine probes (replayed) ≈ %.1f ms/job = %.2f us × %.0f DBMS evals/job",
			rep.metrics["engine.probe_us"].value*evals/1000, rep.metrics["engine.probe_us"].value, evals),
		fmt.Sprintf("GC ≈ %.1f%% of CPU, %.1f cycles/job", 100*rep.metrics["runtime.gc_cpu_share"].value, rep.metrics["runtime.gc_cycles"].value),
		fmt.Sprintf("llm busy %.1f ms/job over %.0f calls/job", rep.metrics["llm.busy_ms"].value, rep.metrics["llm.calls"].value),
		fmt.Sprintf("projected E2E at 100 ms/DBMS eval: %.1f s/job", evals*0.1))
}

// writeTable prints the ranked where-the-time-goes table, each row with its
// share of the job time the table splits.
func writeTable(w io.Writer, rep *report) {
	sort.Slice(rep.table, func(i, j int) bool {
		a, b := rep.table[i], rep.table[j]
		return a.ms > b.ms || (a.ms == b.ms && a.layer < b.layer)
	})
	fmt.Fprintf(w, "# where the time goes: %s (self time per job, ranked)\n", rep.workload)
	for i, r := range rep.table {
		fmt.Fprintf(w, "#   %2d  %10.2f ms  %s (%.1f%% of job)\n", i+1, r.ms, r.layer, 100*r.ms/rep.jobMS)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "#   %s\n", n)
	}
}

// spanIv is one closed span of a trace.
type spanIv struct {
	id, parent int64
	name       string
	start, end time.Duration
}

// spanSelfTimes folds a trace into self time per span name: a span's
// duration minus the union of its children's intervals, so overlapping
// children (parallel tasks) are not subtracted twice. Oracle call spans
// ("llm:*") are summed under one name, "llm:call".
//
// obs parents some calls to the enclosing task span rather than to the
// attempt or iteration span running at the time (the generator's oracle
// calls hang off "generate", refinement probes off "refine"). A span whose
// interval lies inside a sibling with another name is therefore re-parented
// to that sibling, so attempts and iterations do not count their own calls
// as self time. Siblings of the same name (parallel search slots) are never
// nested this way.
func spanSelfTimes(events []obs.Event) (self map[string]time.Duration, count map[string]int) {
	byID := map[int64]*spanIv{}
	var order []*spanIv
	for _, e := range events {
		switch e.Kind {
		case obs.KindSpanStart:
			s := &spanIv{id: e.Span, parent: e.Parent, name: e.Name, start: e.At, end: -1}
			byID[e.Span] = s
			order = append(order, s)
		case obs.KindSpanEnd:
			if s := byID[e.Span]; s != nil {
				s.end = s.start + e.Dur
			}
		}
	}
	kids := map[int64][]*spanIv{}
	for _, s := range order {
		if s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	type move struct{ child, host *spanIv }
	var moves []move
	for _, ks := range kids {
		for _, c := range ks {
			var host *spanIv
			for _, s := range ks {
				if s.name != c.name && s.start <= c.start && c.end <= s.end && (host == nil || s.end-s.start < host.end-host.start) {
					host = s
				}
			}
			if host != nil {
				moves = append(moves, move{c, host})
			}
		}
	}
	for _, m := range moves {
		m.child.parent = m.host.id
	}
	kids = map[int64][]*spanIv{}
	for _, s := range order {
		if s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range order {
		if s.end < 0 {
			continue
		}
		name := s.name
		if strings.HasPrefix(name, "llm:") {
			name = "llm:call"
		}
		self[name] += s.end - s.start - coveredWithin(kids[s.id], s.start, s.end)
		count[name]++
	}
	return self, count
}

// coveredWithin is the length of the union of the spans' intervals clipped
// to [lo, hi].
func coveredWithin(spans []*spanIv, lo, hi time.Duration) time.Duration {
	ivs := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			ivs = append(ivs, [2]time.Duration{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

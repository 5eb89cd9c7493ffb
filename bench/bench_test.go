package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"sqlbarber/internal/obs"
)

// benchmarkJSON reads the workload and metric names BENCHMARK.json lists.
func benchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []metricDef) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	return workloads, endToEnd, perLayer
}

// smokeRun runs one workload's 1-job list on the shrunk datasets and
// returns the report and its printed output.
func smokeRun(t *testing.T, w workloadDef, trace bool) (*report, string) {
	t.Helper()
	o := runOpts{seed: 1, jobs: 1, trace: trace, workDir: t.TempDir(), setups: 1, small: true}
	rep, err := runWorkload(context.Background(), w, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var out bytes.Buffer
	if err := writeReport(&out, rep, trace); err != nil {
		t.Fatal(err)
	}
	return rep, out.String()
}

// requirePrinted checks that every metric is printed as a
// "workload metric value unit" line and appears in the JSON last line.
func requirePrinted(t *testing.T, workload, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var summary struct {
		Correct   bool
		Attempted int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("%s: last line is not the JSON summary: %v", workload, err)
	}
	if !summary.Correct || summary.Attempted != 1 {
		t.Errorf("%s: summary correct=%v attempted=%d, want true and 1\n%s", workload, summary.Correct, summary.Attempted, out)
	}
	for _, d := range defs {
		prefix := workload + " " + d.name + " "
		found := false
		for _, l := range lines {
			if f := strings.Fields(l); strings.HasPrefix(l, prefix) && len(f) == 5 && f[3] == d.unit {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no line %q… with unit %s", workload, prefix, d.unit)
		}
		if m, ok := summary.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: JSON summary lacks %s in %s", workload, d.name, d.unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload's 1-job list untraced twice and
// traced once: the workloads are the ones BENCHMARK.json names, every metric
// it names is printed with its unit, and the same seed gives the same counts
// and workload hash.
func TestWorkloadsSmoke(t *testing.T) {
	names, e2e, layers := benchmarkJSON(t)
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, w := range workloads() {
		first, out := smokeRun(t, w, false)
		requirePrinted(t, w.name, out, e2e)
		second, _ := smokeRun(t, w, false)
		if first.hash != second.hash {
			t.Errorf("%s: workload hash %016x then %016x for one seed", w.name, first.hash, second.hash)
		}
		for _, m := range []string{"dbms_evals_per_job", "llm_calls_per_job", "llm_tokens_per_job"} {
			if a, b := first.metrics[m].value, second.metrics[m].value; a != b {
				t.Errorf("%s: %s is %g then %g for one seed", w.name, m, a, b)
			}
		}
		_, out = smokeRun(t, w, true)
		requirePrinted(t, w.name, out, layers)
	}
}

// TestCheckerCatchesPerturbedCost runs one job, confirms it passes the
// checker, then nudges one recorded cost by one ulp and expects a failure.
func TestCheckerCatchesPerturbedCost(t *testing.T) {
	w, _ := workloadByName("plancost-tpch")
	sh := w.shape(true)
	target := w.target(sh)
	db := openDataset(w.dataset, dataSeed, sh.sf)
	ctx := context.Background()
	j, err := runBatchJob(ctx, db, w, target, w.jobSeeds[0], latency{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if why, _ := checkBatch(ctx, db, w.kind, target, j.res); why != "" {
		t.Fatalf("unperturbed job fails the checker: %s", why)
	}
	q := &j.res.Workload[len(j.res.Workload)/2]
	q.Cost = math.Nextafter(q.Cost, math.Inf(1))
	if why, _ := checkBatch(ctx, db, w.kind, target, j.res); why == "" {
		t.Fatal("checker accepted a workload with a perturbed recorded cost")
	}
}

// TestSpanSelfTimes pins the rollup: children are subtracted as a union, and
// a call parented to its task span is re-attributed to the sibling attempt
// whose interval contains it.
func TestSpanSelfTimes(t *testing.T) {
	ms := time.Millisecond
	span := func(id, parent int64, name string, start, end time.Duration) []obs.Event {
		return []obs.Event{
			{Kind: obs.KindSpanStart, Span: id, Parent: parent, Name: name, At: start},
			{Kind: obs.KindSpanEnd, Span: id, Parent: parent, Name: name, At: end, Dur: end - start},
		}
	}
	var ev []obs.Event
	ev = append(ev, span(1, 0, "round", 0, 100*ms)...)
	ev = append(ev, span(2, 1, "slot", 10*ms, 60*ms)...)
	ev = append(ev, span(3, 1, "slot", 40*ms, 90*ms)...) // overlaps slot 2
	ev = append(ev, span(4, 0, "generate", 100*ms, 200*ms)...)
	ev = append(ev, span(5, 4, "attempt", 110*ms, 190*ms)...)
	ev = append(ev, span(6, 4, "llm:judge", 120*ms, 150*ms)...) // inside attempt 5
	self, count := spanSelfTimes(ev)
	want := map[string]time.Duration{
		"round":    20 * ms, // 100 - |[10,90]|
		"slot":     100 * ms,
		"generate": 20 * ms,
		"attempt":  50 * ms, // 80 - the judge call
		"llm:call": 30 * ms,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
	if count["slot"] != 2 {
		t.Errorf("count[slot] = %d, want 2", count["slot"])
	}
}

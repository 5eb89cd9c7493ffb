// Command bench is SQLBarber's end-to-end benchmark. It drives whole
// workload-generation jobs through the public entry points — pipeline.New(...).Run
// for batch jobs and the sqlbarberd job service behind httptest for daemon
// jobs — checks every job's output, and prints each metric as
// "workload metric value unit n=…", ending with one JSON summary line.
//
// Run it from the repository root (the script builds it from source):
//
//	bash bench/run.sh --workload plancost-tpch --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1            # every workload, each in a child process
//	bash bench/run.sh -seed 1 -trace 1   # per-layer ledger and where-the-time-goes table
//
// With -trace 1 the end-to-end metrics are replaced by per-layer metrics from
// obs spans and counters plus replays of public layer functions on each job's
// own outputs; end-to-end numbers are always measured with tracing off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of SQLBarber sees, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s_mean", "s"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"queries_per_s", "1/s"},
	{"cpu_s_per_job", "s"},
	{"alloc_mb_per_job", "MiB"},
	{"max_rss_mb", "MiB"},
	{"dbms_evals_per_job", "count"},
	{"llm_calls_per_job", "count"},
	{"llm_tokens_per_job", "count"},
	{"distance_mean", "distance"},
	{"fail_ratio", "ratio"},
}

// perLayer lists the traced per-layer metrics, in print order.
var perLayer = []metricDef{
	{"pipeline.generate_ms", "ms"},
	{"pipeline.intervals_ms", "ms"},
	{"pipeline.profile_ms", "ms"},
	{"pipeline.refine_search_ms", "ms"},
	{"pipeline.assemble_ms", "ms"},
	{"search.slot_self_ms", "ms"},
	{"search.slots", "count"},
	{"search.rounds", "count"},
	{"search.evals", "count"},
	{"search.yield", "ratio"},
	{"rf.fit_us", "us"},
	{"rf.predict64_us", "us"},
	{"rf.fit_allocs", "count"},
	{"engine.probe_us", "us"},
	{"engine.recost_us", "us"},
	{"engine.explain_calls", "count"},
	{"engine.exec_calls", "count"},
	{"engine.validate_calls", "count"},
	{"engine.session_probes", "count"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"profiler.self_ms", "ms"},
	{"profiler.probes", "count"},
	{"refine.iteration_self_ms", "ms"},
	{"refine.generated", "count"},
	{"refine.accept_ratio", "ratio"},
	{"generator.attempt_self_ms", "ms"},
	{"generator.attempts", "count"},
	{"generator.valid_ratio", "ratio"},
	{"analyzer.static_catches", "count"},
	{"intervals.analyze_us", "us"},
	{"intervals.pruned", "count"},
	{"intervals.probes_saved", "count"},
	{"llm.calls", "count"},
	{"llm.busy_ms", "ms"},
	{"llm.call_ms_p50", "ms"},
	{"llm.call_ms_p99", "ms"},
	{"llm.tokens", "count"},
	{"workload.select_ms", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"storage.put_ms", "ms"},
	{"storage.artifact_kb", "KiB"},
	{"datagen.open_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead", "ratio"},
}

// inBenchmarkJSON reports whether an end-to-end metric is listed in
// BENCHMARK.json and so carries a regression bound. Four are printed only:
// distance_mean and fail_ratio are exactly 0 on a passing run (a failure
// shows as "correct": false); job_s_p50 and job_s_p90 are the times of one or
// two jobs of a batch list whose jobs differ several-fold in cost, so they
// swing with every job's noise, while the mean-based timings average it.
func inBenchmarkJSON(name string) bool {
	switch name {
	case "distance_mean", "fail_ratio", "job_s_p50", "job_s_p90":
		return false
	}
	return true
}

// sample is one measured metric value with its sample count.
type sample struct {
	value float64
	n     int
}

// report is everything one workload run measured.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	hash      uint64
	metrics   map[string]sample
	table     []tableRow
	jobMS     float64 // the job time the table splits
	notes     []string
}

func (r *report) set(name string, v float64, n int) { r.metrics[name] = sample{v, n} }

// fail records a failed job with the checker's reason.
func (r *report) fail(job int, seed int64, why string) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("job %d (seed %d): %s", job, seed, why))
}

// runOpts are one run's settings. small is a test hook only: the command
// line never sets it.
type runOpts struct {
	seed    int64
	jobs    int
	trace   bool
	workDir string
	setups  int
	small   bool
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, each in its own child process)")
		seed    = flag.Int64("seed", 1, "shuffles the order of each workload's fixed job list")
		seconds = flag.Int("seconds", 20, "measured seconds per workload on the reference box; sets the job list length")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run instead of end-to-end metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload W] [-seed N>=1] [-seconds S>=1] [-trace 0|1]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "" {
		os.Exit(runChildren(ctx, os.Stdout, *seed, *seconds, *trace))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := runOpts{
		seed:    *seed,
		jobs:    w.jobs(*seconds),
		trace:   *trace == 1,
		workDir: ".bench_build",
		setups:  3,
	}
	rep, err := runWorkload(ctx, w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, rep, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing report: %v\n", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// runChildren re-executes this binary once per workload so each workload
// gets a fresh process (heap, RSS, GC state), relaying the children's output.
func runChildren(ctx context.Context, stdout io.Writer, seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads() {
		cmd := exec.CommandContext(ctx, self,
			"-workload", w.name,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds),
			"-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// hostContext describes the machine and build the numbers were taken on.
func hostContext() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d go=%s os=%s/%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// writeReport prints the human-readable lines, then the JSON summary as the
// last line: end-to-end metrics untraced, per-layer metrics traced.
func writeReport(w io.Writer, rep *report, traced bool) error {
	fmt.Fprintf(w, "# host %s\n", hostContext())
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		s := rep.metrics[d.name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", rep.workload, d.name, s.value, d.unit, s.n)
		if traced || inBenchmarkJSON(d.name) {
			metrics[d.name] = jsonMetric{s.value, d.unit}
		}
	}
	fmt.Fprintf(w, "%s workload_hash %016x n=%d\n", rep.workload, rep.hash, rep.attempted)
	if traced {
		writeTable(w, rep)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "# FAILED %s %s\n", rep.workload, f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size (ru_maxrss is in KiB on
// Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

package benchmarks

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sqlbarber/internal/pipeline"
)

func sampleResults() []MethodResult {
	return []MethodResult{
		{
			Method: SQLBarber, Benchmark: "uniform", Dataset: TPCH,
			E2ETime: 1500 * time.Millisecond, FinalDistance: 0, Queries: 100, Evaluations: 500,
			Trajectory: []pipeline.ProgressPoint{
				{Elapsed: 500 * time.Millisecond, Distance: 120},
				{Elapsed: 1500 * time.Millisecond, Distance: 0},
			},
		},
		{
			Method: HillClimbOrder, Benchmark: "uniform", Dataset: TPCH,
			E2ETime: 3 * time.Second, FinalDistance: 80, Queries: 90, Evaluations: 2000,
			Trajectory: []pipeline.ProgressPoint{{Elapsed: 3 * time.Second, Distance: 80}},
		},
	}
}

func TestWriteTrajectoryCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, sampleResults()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 points
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if lines[0] != "benchmark,dataset,method,elapsed_ms,distance" {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "SQLBarber") || !strings.Contains(lines[1], "500.000,120.000") {
		t.Fatalf("first point: %s", lines[1])
	}
}

func TestWriteSummaryCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummaryCSV(&buf, sampleResults()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "e2e_ms,final_distance,queries,evaluations") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "HillClimbing-order,3000.000,80.000,90,2000") {
		t.Fatalf("baseline row missing:\n%s", out)
	}
}

func TestWriteScalingCSV(t *testing.T) {
	var buf bytes.Buffer
	pts := []ScalingPoint{
		{Method: SQLBarber, X: 500, E2ETime: 2 * time.Second, FinalDistance: 0},
		{Method: HillClimbPrio, X: 500, E2ETime: 9 * time.Second, FinalDistance: 210},
	}
	if err := WriteScalingCSV(&buf, "queries", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "queries,method,time_ms,final_distance") {
		t.Fatalf("header:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "500,SQLBarber,2000.000,0.000") {
		t.Fatalf("row:\n%s", buf.String())
	}
}

func TestWriteRewriteCSV(t *testing.T) {
	var buf bytes.Buffer
	c := RewriteCurve{Attempts: []int{0, 1, 2}, SpecOK: []int{2, 10, 24}, SyntaxOK: []int{8, 20, 24}, Total: 24}
	if err := WriteRewriteCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %v", lines)
	}
	if lines[3] != "2,24,24,24" {
		t.Fatalf("last row: %s", lines[3])
	}
}

func TestProjectedE2E(t *testing.T) {
	r := MethodResult{Evaluations: 6000}
	if got := r.ProjectedE2E(); got != 10*time.Minute {
		t.Fatalf("6000 evals at 100ms = %v, want 10m", got)
	}
}

func TestFormatTable2(t *testing.T) {
	var buf bytes.Buffer
	FormatTable2(&buf, []CostRow{{Benchmark: "uniform", TokensK: 416, NumTemplates: 44, CostUSD: 1.2}})
	if !strings.Contains(buf.String(), "uniform") || !strings.Contains(buf.String(), "1.20") {
		t.Fatalf("table 2 formatting:\n%s", buf.String())
	}
}

package benchmarks

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sqlbarber/internal/pipeline"
)

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Fatalf("empty input: %q", got)
	}
	s := Sparkline([]float64{0, 5, 10})
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("length: %q", s)
	}
	if runes[0] == runes[2] {
		t.Fatalf("0 and max should render differently: %q", s)
	}
	if got := Sparkline([]float64{0, 0, 0}); len([]rune(got)) != 3 {
		t.Fatalf("all-zero: %q", got)
	}
}

func TestResampleTrajectory(t *testing.T) {
	tr := []pipeline.ProgressPoint{
		{Elapsed: 0, Distance: 100},
		{Elapsed: time.Second, Distance: 50},
		{Elapsed: 2 * time.Second, Distance: 0},
	}
	got := resampleTrajectory(tr, 5)
	if len(got) != 5 {
		t.Fatalf("length %d", len(got))
	}
	if got[0] != 100 || got[4] != 0 {
		t.Fatalf("endpoints: %v", got)
	}
	// Monotone non-increasing input stays non-increasing after resampling.
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Fatalf("resample broke monotonicity: %v", got)
		}
	}
	if resampleTrajectory(nil, 5) != nil {
		t.Fatal("nil trajectory")
	}
}

func TestPrintTrajectories(t *testing.T) {
	var buf bytes.Buffer
	PrintTrajectories(&buf, sampleResults(), 20)
	out := buf.String()
	if !strings.Contains(out, "SQLBarber") || !strings.Contains(out, "final=0.0") {
		t.Fatalf("output:\n%s", out)
	}
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("one line per result expected:\n%s", out)
	}
}

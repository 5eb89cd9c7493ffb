package benchmarks

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunParallelScalingSmoke runs the scaling experiment at two levels; the
// experiment itself fails when the determinism contract breaks (hash or
// DBMS-call drift across worker counts), so passing here covers parity.
func TestRunParallelScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment skipped in -short mode")
	}
	var buf bytes.Buffer
	r := NewRunner(Quick, 1)
	pts, err := r.RunParallelScaling(context.Background(), &buf, []int{1, 4})
	if err != nil {
		t.Fatalf("parallel scaling: %v\n%s", err, buf.String())
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[1].Speedup < 1.2 {
		t.Fatalf("4 workers only %.2fx faster than 1 (latency overlap broken)\n%s", pts[1].Speedup, buf.String())
	}
	if !strings.Contains(buf.String(), "determinism: all 2 levels") {
		t.Fatalf("missing determinism verdict:\n%s", buf.String())
	}
}

package benchmarks

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sqlbarber/internal/pipeline"
)

// sparkLevels are the eighth-block characters used for inline charts.
var sparkLevels = []rune(" ▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode mini-chart scaled to max(values).
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	max := values[0]
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparkLevels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// resampleTrajectory picks n evenly spaced distance samples over the
// trajectory's time axis so curves of different lengths compare visually.
func resampleTrajectory(tr []pipeline.ProgressPoint, n int) []float64 {
	if len(tr) == 0 || n <= 0 {
		return nil
	}
	end := tr[len(tr)-1].Elapsed
	if end <= 0 {
		end = 1
	}
	out := make([]float64, n)
	k := 0
	for i := 0; i < n; i++ {
		t := time.Duration(float64(end) * float64(i) / float64(n-1))
		for k+1 < len(tr) && tr[k+1].Elapsed <= t {
			k++
		}
		out[i] = tr[k].Distance
	}
	return out
}

// PrintTrajectories renders the distance-over-time curves of a set of
// results as sparklines — a terminal rendition of the Figure 5/6 left
// panels. Results are grouped as given; each line shows the method, its
// curve (left = start, right = end), and the final distance.
func PrintTrajectories(w io.Writer, results []MethodResult, width int) {
	if width <= 0 {
		width = 40
	}
	for _, r := range results {
		curve := resampleTrajectory(r.Trajectory, width)
		fmt.Fprintf(w, "%-6s %-24s |%s| final=%.1f\n", r.Dataset, r.Method, Sparkline(curve), r.FinalDistance)
	}
}

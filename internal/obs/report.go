package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// SpanRollup aggregates every completed span sharing one name.
type SpanRollup struct {
	Name  string
	Count int
	Total time.Duration
	Max   time.Duration
}

// Rollup folds the trace's span_end events by span name, sorted by total
// time descending (name-sorted among ties) — the per-stage/per-task time
// breakdown of the run.
func (c *Collector) Rollup() []SpanRollup {
	byName := map[string]*SpanRollup{}
	for _, e := range c.Events() {
		if e.Kind != KindSpanEnd {
			continue
		}
		r, ok := byName[e.Name]
		if !ok {
			r = &SpanRollup{Name: e.Name}
			byName[e.Name] = r
		}
		r.Count++
		r.Total += e.Dur
		if e.Dur > r.Max {
			r.Max = e.Dur
		}
	}
	out := make([]SpanRollup, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// reportSection groups related counters under one heading.
type reportSection struct {
	title string
	names []string
}

var reportSections = []reportSection{
	{"LLM budget", []string{
		MLLMOracleCalls, MLLMPromptTokens, MLLMCompletionTokens,
		MLLMGenerateCalls, MLLMJudgeCalls, MLLMFixSemanticsCalls,
		MLLMFixExecutionCalls, MLLMRefineCalls,
	}},
	{"DBMS budget", []string{
		MDBExplainCalls, MDBExecCalls, MDBValidateCalls,
		MProfileDedupedProbes,
	}},
	{"Generator / static analyzer", []string{
		MGenAttempts, MStaticSpecCatches, MStaticExecCatches,
	}},
	{"Refine + search", []string{
		MRefineIterations, MRefineGenerated, MRefineAccepted, MRefineProfileFails,
		MSearchRounds, MSearchEvals, MSearchMemoHits, MSearchSkipped, MSearchBadCombos,
	}},
}

// WriteReport renders the human RunReport: span-time rollup, grouped
// counters, gauges, and histograms. It is what cmd/sqlbarber -report and
// cmd/benchmarks print after a run.
func (c *Collector) WriteReport(w io.Writer) error {
	snap := c.Snapshot()
	var b strings.Builder
	b.WriteString("== run report ==\n")

	if roll := c.Rollup(); len(roll) > 0 {
		b.WriteString("-- spans (by total time) --\n")
		for _, r := range roll {
			fmt.Fprintf(&b, "  %-28s n=%-5d total=%-12s max=%s\n",
				r.Name, r.Count, r.Total.Round(time.Microsecond), r.Max.Round(time.Microsecond))
		}
	}

	have := map[string]int64{}
	covered := map[string]bool{}
	for _, cp := range snap.Counters {
		have[cp.Name] = cp.Value
	}
	for _, sec := range reportSections {
		printed := false
		for _, name := range sec.names {
			covered[name] = true
			v, ok := have[name]
			if !ok {
				continue
			}
			if !printed {
				fmt.Fprintf(&b, "-- %s --\n", sec.title)
				printed = true
			}
			fmt.Fprintf(&b, "  %-32s %d\n", name, v)
		}
	}
	var rest []CounterPoint
	for _, cp := range snap.Counters {
		if !covered[cp.Name] {
			rest = append(rest, cp)
		}
	}
	if len(rest) > 0 {
		b.WriteString("-- other counters --\n")
		for _, cp := range rest {
			fmt.Fprintf(&b, "  %-32s %d\n", cp.Name, cp.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		b.WriteString("-- gauges --\n")
		for _, g := range snap.Gauges {
			fmt.Fprintf(&b, "  %-32s %s\n", g.Name, formatFloat(g.Value))
		}
	}
	if len(snap.Histograms) > 0 {
		b.WriteString("-- histograms --\n")
		for _, h := range snap.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-32s n=%-6d mean=%.1f %s\n", h.Name, h.Count, mean, sparkHist(h))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sparkHist renders a histogram's bucket occupancy as a unicode sparkline.
func sparkHist(h HistogramPoint) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	max := int64(0)
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	var b strings.Builder
	for _, c := range h.Counts {
		idx := int(c * int64(len(levels)-1) / max)
		b.WriteRune(levels[idx])
	}
	return b.String()
}

package stabl

import (
	"fmt"
	"strings"
	"time"
)

// Rendering helpers turn figure results into the textual equivalents of the
// paper's plots: score rows for the bar charts, downsampled series for the
// throughput-over-time figures, and a score table for the radar chart.

// RenderFig3 renders one Fig 3 panel as score rows. Benefit scores (striped
// bars in the paper) are marked, infinite scores print as "inf".
func RenderFig3(title string, cmps []*Comparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, cmp := range cmps {
		bar := scoreBar(cmp)
		fmt.Fprintf(&b, "  %-10s %-12s %s\n", cmp.System, cmp.Score, bar)
	}
	return b.String()
}

func scoreBar(cmp *Comparison) string {
	if cmp.Score.Infinite {
		return "############ inf (liveness lost)"
	}
	n := int(cmp.Score.Value)
	if n > 60 {
		n = 60
	}
	ch := "#"
	if cmp.Score.Benefit {
		ch = "/" // striped: the altered environment helped
	}
	return strings.Repeat(ch, n)
}

// RenderThroughput renders one system's baseline and altered throughput
// series side by side, downsampled to the given bucket (e.g. 10 s), with
// markers at the timeline's first-disruption (x) and last-revert (o) instants
// — the textual equivalent of one panel of Figs 4-6. A non-positive bucket
// renders the series at its own resolution.
func RenderThroughput(cmp *Comparison, bucket time.Duration) string {
	if bucket <= 0 {
		bucket = cmp.Baseline.Throughput.Bucket
	}
	var b strings.Builder
	if cmp.Scenario != "" {
		fmt.Fprintf(&b, "%s (scenario: %s)\n", cmp.System, cmp.Scenario)
	} else {
		fmt.Fprintf(&b, "%s (%s: inject %s, recover %s)\n",
			cmp.System, cmp.Fault.Kind,
			fmtSecs(cmp.Fault.InjectAt), fmtSecs(cmp.Fault.RecoverAt))
	}
	fmt.Fprintf(&b, "  %8s %10s %10s\n", "t", "baseline", "altered")
	total := time.Duration(len(cmp.Baseline.Throughput.Counts)) * cmp.Baseline.Throughput.Bucket
	for t := time.Duration(0); t < total; t += bucket {
		mark := " "
		if cmp.InjectAt > 0 && t <= cmp.InjectAt && cmp.InjectAt < t+bucket {
			mark = "x" // failure injected
		}
		if cmp.RecoverAt > 0 && t <= cmp.RecoverAt && cmp.RecoverAt < t+bucket {
			mark = "o" // recovery
		}
		fmt.Fprintf(&b, "  %7s%s %10.1f %10.1f\n", fmtSecs(t), mark,
			cmp.Baseline.Throughput.MeanRate(t, t+bucket),
			cmp.Altered.Throughput.MeanRate(t, t+bucket))
	}
	return b.String()
}

// RenderRadar renders Fig 7 as a score table.
func RenderRadar(r *Radar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, kind := range r.Kinds {
		fmt.Fprintf(&b, " %13s", kind)
	}
	b.WriteString("\n")
	for _, sys := range r.Order {
		fmt.Fprintf(&b, "%-10s", sys)
		for _, kind := range r.Kinds {
			cmp := r.Cells[sys][kind]
			if cmp == nil {
				fmt.Fprintf(&b, " %13s", "-")
				continue
			}
			fmt.Fprintf(&b, " %13s", cmp.Score)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderECDF renders Fig 1's two latency eCDFs as aligned columns.
func RenderECDF(fig *ECDFFigure, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s latency eCDFs (sensitivity %s)\n", fig.System, fig.Score)
	fmt.Fprintf(&b, "  %12s %10s | %12s %10s\n", "baseline x", "F(x)", "altered x", "F(x)")
	n := points
	if len(fig.Baseline) < n {
		n = len(fig.Baseline)
	}
	for i := 0; i < n; i++ {
		bi := fig.Baseline[len(fig.Baseline)*i/n]
		var ax, ay float64
		if len(fig.Altered) > 0 {
			ap := fig.Altered[len(fig.Altered)*i/n]
			ax, ay = ap.X, ap.Y
		}
		fmt.Fprintf(&b, "  %11.2fs %10.3f | %11.2fs %10.3f\n", bi.X, bi.Y, ax, ay)
	}
	return b.String()
}

// RenderRecovery renders the recovery-time observations of §5/§6.
func RenderRecovery(reports []RecoveryReport) string {
	var b strings.Builder
	for _, r := range reports {
		state := "never (liveness lost)"
		if r.Recovered {
			state = fmt.Sprintf("%.0fs after recovery event", r.Delay.Seconds())
		}
		fmt.Fprintf(&b, "  %-10s %-12s %s\n", r.System, r.Fault, state)
	}
	return b.String()
}

func fmtSecs(d time.Duration) string {
	return fmt.Sprintf("%.0fs", d.Seconds())
}

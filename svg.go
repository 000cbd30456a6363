package stabl

import (
	"fmt"
	"time"

	"stabl/internal/plot"
)

// SVG rendering of the paper's figures. Each function returns a standalone
// SVG document string; cmd/stabl writes them to files with -svg.

// SVG renders Fig 1's two eCDF curves.
func (fig *ECDFFigure) SVG() string {
	toPlot := func(points []Point) []plot.Point {
		out := make([]plot.Point, len(points))
		for i, p := range points {
			out[i] = plot.Point{X: p.X, Y: p.Y}
		}
		return out
	}
	return plot.Chart{
		Title:  fig.System + " latency eCDFs (sensitivity " + fig.Score.String() + ")",
		XLabel: "latency (s)",
		YLabel: "F(x)",
		Series: []plot.Series{
			{Name: "baseline", Points: toPlot(fig.Baseline)},
			{Name: "altered", Points: toPlot(fig.Altered), Dashed: true},
		},
	}.SVG()
}

// Fig3SVG renders one Fig 3 panel as a bar chart: one bar per system,
// striped for benefits, full-height red for infinite scores.
func Fig3SVG(title string, cmps []*Comparison) string {
	bars := make([]plot.Bar, 0, len(cmps))
	for _, cmp := range cmps {
		bars = append(bars, plot.Bar{
			Label:    cmp.System,
			Value:    cmp.Score.Value,
			Infinite: cmp.Score.Infinite,
			Striped:  cmp.Score.Benefit,
		})
	}
	return plot.BarChart{Title: title, YLabel: "sensitivity", Bars: bars}.SVG()
}

// ThroughputSVG renders one system's baseline and altered throughput series
// with markers at the timeline's first-disruption and last-revert instants,
// one panel of Figs 4-6.
func ThroughputSVG(cmp *Comparison, bucket time.Duration) string {
	if bucket <= 0 {
		bucket = 5 * time.Second
	}
	series := func(ts TimeSeries, name string, dashed bool) plot.Series {
		total := time.Duration(len(ts.Counts)) * ts.Bucket
		var pts []plot.Point
		for t := time.Duration(0); t < total; t += bucket {
			pts = append(pts, plot.Point{
				X: t.Seconds(),
				Y: ts.MeanRate(t, t+bucket),
			})
		}
		return plot.Series{Name: name, Points: pts, Dashed: dashed}
	}
	chart := plot.Chart{
		Title:  cmp.System + " throughput (" + cmp.Environment() + ")",
		XLabel: "time (s)",
		YLabel: "tx/s",
		Series: []plot.Series{
			series(cmp.Baseline.Throughput, "baseline", false),
			series(cmp.Altered.Throughput, "altered", true),
		},
	}
	if cmp.InjectAt > 0 {
		chart.VLines = append(chart.VLines, plot.VLine{X: cmp.InjectAt.Seconds(), Label: "inject"})
	}
	if cmp.RecoverAt > 0 {
		chart.VLines = append(chart.VLines, plot.VLine{
			X: cmp.RecoverAt.Seconds(), Label: "recover", Color: "#2ca02c",
		})
	}
	return chart.SVG()
}

// CampaignHeatmapSVG renders one system's campaign outcomes as an
// inject-time x fault-kind sensitivity heatmap: finite cells shade by mean
// score, cells that lost liveness or crashed the model render as "inf",
// unexplored cells stay gray.
func CampaignHeatmapSVG(res *CampaignResult, system string) string {
	faults, injects, values := res.HeatmapGrid(system)
	cols := make([]string, len(injects))
	for i, sec := range injects {
		cols[i] = fmt.Sprintf("%gs", sec)
	}
	return plot.Heatmap{
		Title:   system + " fault-space sensitivity",
		XLabel:  "inject time",
		YLabel:  "fault",
		XLabels: cols,
		YLabels: faults,
		Values:  values,
	}.SVG()
}

// Package trace is the benchmark's wall clock and span recorder. Every
// wall-clock read of the benchmark happens here: the probe and driver
// packages import simulated packages (sim, simnet, chain), where the
// determinism lint forbids time.Now, so they time themselves through Now and
// Recorder instead. The package imports only the standard library.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

var epoch = time.Now()

// Now returns the monotonic host time since the process started.
func Now() time.Duration { return time.Since(epoch) }

// Span is one timed interval. Parent indexes the enclosing span in the
// recorder (-1 for a root); Run identifies the simulation run (baseline,
// altered or campaign cell) the span belongs to, shared by all its phases.
type Span struct {
	Name   string
	Run    string
	Start  time.Duration
	End    time.Duration
	Parent int
	// Args carries the counts taken at the span's boundary (events and
	// commits of a RunUntil slice, the cell index of a campaign cell).
	Args map[string]float64
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the benchmark ends. A nil Recorder
// records nothing, so the untraced pass runs the same code path minus the
// bookkeeping. It is not safe for concurrent use: one goroutine drives a
// workload.
type Recorder struct {
	spans []Span
	open  []int // stack of open span indexes
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin opens a span under the innermost open span and returns its index.
func (r *Recorder) Begin(name, run string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, Span{Name: name, Run: run, Parent: parent, Start: Now()})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// End closes the innermost open span, which must be id.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	end := Now()
	if len(r.open) == 0 || r.open[len(r.open)-1] != id {
		panic(fmt.Sprintf("trace: End(%d) does not close the innermost open span", id))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = end
}

// SetArgs attaches counts to a span; it may be called after End, so taking
// the counts does not lengthen the span they describe.
func (r *Recorder) SetArgs(id int, args map[string]float64) {
	if r == nil {
		return
	}
	r.spans[id].Args = args
}

// Add records an already-timed span under the innermost open span. The
// campaign workload uses it: cell boundaries are only known from the gaps
// between progress callbacks.
func (r *Recorder) Add(name, run string, start, end time.Duration, args map[string]float64) {
	if r == nil {
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, Span{Name: name, Run: run, Parent: parent, Start: start, End: end, Args: args})
}

// Spans returns the recorded spans in creation order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns, per span, its duration minus the part its direct
// children cover. Children of one parent never overlap (one goroutine opens
// and closes them in order), so the subtraction is exact and the self times
// of a subtree sum to its root's duration.
func SelfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur()
		}
	}
	return self
}

// SelfByName sums self time over spans sharing a name.
func SelfByName(spans []Span) map[string]time.Duration {
	sums := make(map[string]time.Duration)
	for i, d := range SelfTimes(spans) {
		sums[spans[i].Name] += d
	}
	return sums
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`  // microseconds
	Dur  float64            `json:"dur"` // microseconds
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

// WriteChrome writes the spans as Chrome-trace JSON.
func WriteChrome(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Run, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.Dur()) / float64(time.Microsecond),
			Pid: 1, Tid: 1, Args: s.Args,
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

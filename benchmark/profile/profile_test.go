package profile

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var sink uint64

// spin is the known hot loop the test looks for in its own profile. It works
// on a local and publishes once, so the race detector's instrumentation of
// global writes stays out of the loop.
//
//go:noinline
func spin(d time.Duration) {
	var acc uint64
	for start := time.Now(); time.Since(start) < d; {
		for i := uint64(0); i < 1<<20; i++ {
			acc += i * i
		}
	}
	sink = acc
}

// TestParseFindsHotLoop records a CPU profile of a known hot loop and finds
// the loop, by name and by package, at the leaf of most of its samples.
func TestParseFindsHotLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cannot profile: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, hot int64
	for _, s := range samples {
		total += s.Value
		if len(s.Stack) > 0 && strings.HasSuffix(s.Stack[0], "profile.spin") {
			hot += s.Value
			if pkg := Package(s.Stack[0]); pkg != "stabl/benchmark/profile" {
				t.Fatalf("Package(%q) = %q", s.Stack[0], pkg)
			}
		}
	}
	if total == 0 {
		t.Skip("the profiler delivered no samples (no SIGPROF in this sandbox)")
	}
	if hot*2 < total {
		t.Errorf("spin holds %d of %d ns of self time, want most of it", hot, total)
	}
	if shares := Shares(samples); shares["other"] < 0.5 {
		t.Errorf("a loop outside the simulator's packages belongs to \"other\", got shares %v", shares)
	}
}

func TestLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"stabl/internal/sim.(*queue).siftDown", "stabl/internal/sim.(*Scheduler).Step"}, "sim"},
		{[]string{"stabl/internal/simnet.(*Network).send"}, "simnet"},
		{[]string{"stabl/internal/overlay.(*dupemap).add"}, "overlay"},
		{[]string{"stabl/internal/algorand.(*Node).Deliver"}, "system"},
		{[]string{"stabl/internal/workload.(*Flow).Next"}, "client"},
		{[]string{"stabl/internal/core.(*Experiment).Collect"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "stabl/internal/sim.(*Scheduler).At"}, "runtime_other"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1"}, "runtime_gc"},
		{[]string{"math/rand.(*Rand).Int63n"}, "other"},
		{[]string{"internal/runtime/maps.h2", "runtime.mapaccess2_fast64", "stabl/internal/chain.(*Ledger).Append"}, "runtime_other"},
		{[]string{"aeshashbody", "runtime.mapaccess1_fast64"}, "runtime_other"},
		{[]string{"slices.partitionOrdered[go.shape.float64]"}, "other"},
		{[]string{"stabl/internal/chain.apply[go.shape.struct { stabl/internal/chain.Tx }]"}, "chain"},
		{nil, "other"},
	} {
		if got := Layer(tc.stack); got != tc.want {
			t.Errorf("Layer(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
	if len(Layers) != 12 {
		t.Errorf("Layers = %v", Layers)
	}
}

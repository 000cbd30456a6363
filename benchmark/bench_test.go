package benchmark

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"stabl"
	"stabl/benchmark/trace"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Def `json:"end_to_end"`
	PerLayer []Def `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode keeps BENCHMARK.json and the tables the command
// reports from equal: same workloads, same metrics, units, directions and
// bounds, in the same order.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(m.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(m.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got, want []Def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != d {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, d)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s %s: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, EndToEnd, true)
	check("per_layer", m.PerLayer, PerLayer, false)
	seen := make(map[string]bool)
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// reports says which per-layer metrics a workload is declared to report:
// the ones whose layer it runs. The driver's result line fills the others
// with zero.
func reports(workload, metric string) bool {
	campaign := workload == "campaign-fork"
	paper := workload == "paper-transient"
	scale := strings.HasPrefix(workload, "scale-")
	switch layer, _, _ := strings.Cut(metric, "."); layer {
	case "core":
		return !campaign || metric == "core.run_s"
	case "sim":
		switch {
		case metric == "sim.queue_ns_per_event":
			return true
		case strings.HasPrefix(metric, "sim.par_"):
			return workload == "scale-mesh-par2"
		}
		return !campaign
	case "simnet":
		switch metric {
		case "simnet.unicast_ns_per_msg":
			return true
		case "simnet.broadcast_ns_per_dest":
			return !campaign && workload != "scale-kadcast"
		case "simnet.degraded_ns_per_msg":
			return campaign
		}
		return !campaign
	case "overlay":
		return workload == "scale-kadcast"
	case "committee":
		return scale
	case "chain":
		return !campaign || (metric != "chain.max_height" && metric != "chain.residual_share")
	case "algorand":
		return !campaign
	case "aptos", "avalanche", "redbelly", "solana", "stats":
		return paper
	case "client":
		return !campaign || metric == "client.submitted"
	case "metrics", "scenario", "snapshot", "campaign":
		return campaign
	case "runtime":
		return !campaign || metric != "runtime.allocs_per_event"
	}
	return true // prof, trace
}

// TestSmoke runs every workload at smoke size — two untraced passes and the
// traced pass, in this process — and checks what the command promises: every
// declared end-to-end metric on every workload, every layer a workload runs,
// identical simulated outputs across passes and kernels, a well-formed
// trace.
func TestSmoke(t *testing.T) {
	emitted := make(map[string]bool)
	var mesh *meshReference
	children := t.TempDir() // what a child process would print, by workload and -trace
	for _, w := range Workloads {
		first, _, _, err := RunRep(w, 7, false, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		second, _, _, err := RunRep(w, 7, false, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		traced, spans, _, err := RunRep(w, 7, true, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for flag, rep := range []*Rep{first, traced} {
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fmt.Sprintf("%s/%s.%d.json", children, w.Name, flag), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var ref *meshReference
		switch w.Name {
		case "scale-mesh":
			mesh = &meshReference{digest: first.Digest, wallS: first.Host.WallS}
		case "scale-mesh-par2":
			ref = mesh
		}
		res := assemble(w, []*Rep{first, second}, traced, ref, true)
		if !res.Correct {
			t.Errorf("%s: checks failed: %v", w.Name, res.Violations)
		}

		for _, d := range EndToEnd {
			s, ok := res.EndToEnd[d.Name]
			if !ok || s.Unit != d.Unit || !(s.Median > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.Name, d.Name, s, d.Unit)
			}
		}
		for _, d := range PerLayer {
			v, ok := res.PerLayer[d.Name]
			if ok != reports(w.Name, d.Name) {
				t.Errorf("%s: per-layer metric %s reported=%v, declared=%v", w.Name, d.Name, ok, !ok)
			}
			if ok && v.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s in %s, declared in %s", w.Name, d.Name, v.Unit, d.Unit)
			}
			emitted[d.Name] = emitted[d.Name] || ok
		}
		if len(res.PerLayer) > len(PerLayer) {
			t.Errorf("%s: reports undeclared per-layer metrics: %v", w.Name, res.PerLayer)
		}

		// The driver's result line: every declared per-layer metric.
		var buf bytes.Buffer
		if err := printLine(&buf, res, "1"); err != nil {
			t.Fatal(err)
		}
		var got line
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("%s: result line does not parse: %v", w.Name, err)
		}
		if len(got.Metrics) != len(PerLayer) {
			t.Errorf("%s: result line has %d metrics, want the %d per-layer ones", w.Name, len(got.Metrics), len(PerLayer))
		}
		buf.Reset()
		if err := printLine(&buf, res, "0"); err != nil {
			t.Fatal(err)
		}
		got = line{}
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil || len(got.Metrics) != len(EndToEnd) {
			t.Errorf("%s: untraced result line has %d metrics (%v), want %d", w.Name, len(got.Metrics), err, len(EndToEnd))
		}

		checkTrace(t, w.Name, spans)
	}
	for _, d := range PerLayer {
		if !emitted[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload reports it", d.Name)
		}
	}
	runThroughChildren(t, children)
}

// runThroughChildren drives Run, the parent side of the command, over every
// workload. Its children are a script that prints what the passes above
// measured at smoke size, where the command would start itself at full size:
// spawn's arguments, the passes' order, the document and the result line are
// the command's own.
func runThroughChildren(t *testing.T, children string) {
	t.Helper()
	exe := children + "/child.sh"
	// spawn passes: -child -workload <name> -seed <n> -trace <0|1> ...
	script := "#!/bin/sh\nexec cat \"" + children + "/$3.$7.json\"\n"
	if err := os.WriteFile(exe, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	out := children + "/doc.json"
	ok, err := Run(Options{Workloads: Workloads, Seed: 7, Reps: 2, Out: out, Exe: exe, Stdout: &stdout, Stderr: io.Discard})
	if err != nil || !ok {
		t.Fatalf("Run: ok=%v err=%v\n%s", ok, err, stdout.String())
	}
	doc, err := readDocument(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != len(Workloads) {
		t.Fatalf("document has %d results, want %d", len(doc.Results), len(Workloads))
	}
	for _, r := range doc.Results {
		if !r.Correct || r.Reps != 2 || len(r.EndToEnd) != len(EndToEnd) || r.PerLayer == nil {
			t.Errorf("%s: correct=%v reps=%d end-to-end=%d per-layer=%d", r.Workload, r.Correct, r.Reps, len(r.EndToEnd), len(r.PerLayer))
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of standard output is not a result object: %v", err)
	}
	if len(last.Metrics) != len(EndToEnd)+len(PerLayer) {
		t.Errorf("result line has %d metrics, want %d", len(last.Metrics), len(EndToEnd)+len(PerLayer))
	}
	if worse, err := Compare(io.Discard, out, out); err != nil || worse {
		t.Errorf("a document compared with itself: worse=%v err=%v", worse, err)
	}
}

// checkTrace verifies the span tree: one root, self times that are never
// negative and sum to the root's duration, and a Chrome-trace file that
// parses.
func checkTrace(t *testing.T, workload string, spans []trace.Span) {
	t.Helper()
	if len(spans) == 0 || spans[0].Parent != -1 || spans[0].Name != workload {
		t.Fatalf("%s: trace has no root span", workload)
	}
	var sum int64
	for i, self := range trace.SelfTimes(spans) {
		if self < 0 {
			t.Errorf("%s: span %d (%s) has negative self time %v", workload, i, spans[i].Name, self)
		}
		if i > 0 && spans[i].Parent < 0 {
			t.Errorf("%s: span %d (%s) is a second root", workload, i, spans[i].Name)
		}
		sum += int64(self)
	}
	if sum != int64(spans[0].Dur()) {
		t.Errorf("%s: self times sum to %d ns, the root span lasts %d ns", workload, sum, spans[0].Dur())
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("%s: trace JSON does not parse: %v", workload, err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Errorf("%s: trace JSON has %d events for %d spans", workload, len(doc.TraceEvents), len(spans))
	}
}

// TestPairEqualsCompare checks that the pair the benchmark composes from
// Build, Start, RunUntil, Collect and ScoreWithBaseline — sliced, as the
// traced pass runs it — is the pair stabl.Compare runs.
func TestPairEqualsCompare(t *testing.T) {
	sz := sizeFor(true)
	var redbelly unit
	for _, u := range paperUnits(7, sz) {
		if u.label == "Redbelly" {
			redbelly = u
		}
	}
	p := &pass{sz: sz, rec: trace.NewRecorder(), rep: &Rep{}, sum: sha256.New()}
	p.rep.Host.Systems = make(map[string]SystemCost)
	got, err := p.runPair(redbelly)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stabl.Compare(redbelly.cfg())
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || got.RecoveryTime != want.RecoveryTime || got.Recovered != want.Recovered {
		t.Errorf("phase-composed pair scored %+v (recovery %v), stabl.Compare %+v (recovery %v)",
			got.Score, got.RecoveryTime, want.Score, want.RecoveryTime)
	}
	if got.Altered.Events != want.Altered.Events || got.Baseline.Events != want.Baseline.Events ||
		got.Altered.NetStats != want.Altered.NetStats {
		t.Errorf("phase-composed pair ran %d+%d events, stabl.Compare %d+%d",
			got.Baseline.Events, got.Altered.Events, want.Baseline.Events, want.Altered.Events)
	}
}

func TestJudge(t *testing.T) {
	wall, share := gate{rel: 0.10}, gate{rel: 0.02}
	setup := gate{rel: 0.10, floor: 0.05}
	stat := func(v ...float64) Stat { return newStat("s", v) }
	for _, tc := range []struct {
		better string
		gate   gate
		o, n   Stat
		want   string
	}{
		{"lower", wall, stat(10, 10.1, 10.2), stat(10.05, 10.1, 10.3), "same"},
		{"lower", wall, stat(10, 10.1, 10.2), stat(11.5, 11.6, 11.7), "worse"},
		{"lower", wall, stat(10, 10.1, 10.2), stat(8, 8.1, 8.2), "better"},
		{"lower", wall, stat(9, 10, 12), stat(9.5, 10.5, 12), "unresolved"},
		{"lower", wall, stat(9, 10, 12), stat(8.5, 9.5, 11.5), "unresolved"},
		{"lower", wall, stat(9, 10, 12), stat(5, 6, 7), "better"},
		{"higher", share, stat(0.94, 0.94, 0.94), stat(0.90, 0.90, 0.90), "worse"},
		{"higher", share, stat(0.94, 0.94, 0.94), stat(1, 1, 1), "better"},
		{"higher", share, stat(1, 1, 1), stat(1, 1, 1), "same"},
		// Under the floor a set-up of microseconds may double; over it the
		// relative gate decides.
		{"lower", setup, stat(40e-6, 44e-6, 50e-6), stat(80e-6, 90e-6, 99e-6), "same"},
		{"lower", setup, stat(0.30, 0.31, 0.32), stat(0.33, 0.335, 0.34), "same"},
		{"lower", setup, stat(0.30, 0.31, 0.32), stat(0.40, 0.41, 0.42), "worse"},
	} {
		if got, _, _ := judge(tc.better, tc.gate, tc.o, tc.n); got != tc.want {
			t.Errorf("%s old %v new %v: verdict %s, want %s", tc.better, tc.o.Values, tc.n.Values, got, tc.want)
		}
	}
}

// TestSameSeedGates keeps -compare's gates in step with the metrics: one
// gate per end-to-end metric, none wider than the driver's bound.
func TestSameSeedGates(t *testing.T) {
	if len(sameSeed) != len(EndToEnd) {
		t.Errorf("%d same-seed gates for %d end-to-end metrics", len(sameSeed), len(EndToEnd))
	}
	for _, d := range EndToEnd {
		if g, ok := sameSeed[d.Name]; !ok || g.rel <= 0 || g.rel > d.Bound {
			t.Errorf("%s: same-seed gate %+v, driver bound %v", d.Name, g, d.Bound)
		}
	}
}

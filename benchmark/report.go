package benchmark

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"

	"stabl/benchmark/trace"
)

// Result is one workload's report: end-to-end metrics over its untraced
// repetitions, per-layer metrics from its traced pass, and the verdict of
// the correctness checks.
type Result struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	Reps     int    `json:"reps"`
	// Correct is false when any check failed; Violations says which.
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// Integrity lists the hash-chain violations behind failed runs; they
	// count in Failed and leave Correct alone (see pass.account).
	Integrity []string `json:"integrity,omitempty"`
	// SimDigest identifies the simulated outputs. It is informational
	// across commits — a protocol or overlay change legitimately moves it
	// — and must be identical across repetitions of one commit.
	SimDigest string             `json:"simDigest"`
	Counts    Counts             `json:"counts"`
	EndToEnd  map[string]Stat    `json:"endToEnd,omitempty"`
	PerLayer  map[string]Value   `json:"perLayer,omitempty"`
	SelfS     map[string]float64 `json:"selfS,omitempty"`
}

// Document is the machine-readable output of one invocation, the input of
// -compare.
type Document struct {
	GoVersion string    `json:"goVersion"`
	NumCPU    int       `json:"numCPU"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	Results   []*Result `json:"results"`
}

// Options configure one invocation of the benchmark command.
type Options struct {
	Workloads []Workload
	Seed      int64
	// Reps is the number of untraced repetitions per workload, each in a
	// fresh child process. Seconds, when positive, replaces it: repetitions
	// continue until their measured sections add up to that long.
	Reps    int
	Seconds float64
	// Trace selects the passes: "0" untraced only, "1" the traced pass
	// (plus the one untraced repetition its overhead is measured against),
	// "" both.
	Trace string
	// TraceOut is the directory the traced pass writes its Chrome-trace
	// file into, one per workload.
	TraceOut string
	// Out, when set, receives the Document.
	Out string
	// Exe is the binary children are started from: this command itself.
	Exe    string
	Stdout io.Writer
	Stderr io.Writer
}

// meshReference is what scale-mesh-par2 is checked and scaled against.
type meshReference struct {
	digest string
	wallS  float64
}

// Run executes the selected workloads and reports them. It returns false
// when any correctness check failed.
func Run(opts Options) (bool, error) {
	doc := &Document{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	fmt.Fprintf(opts.Stdout, "stablbench: %s %s/%s, %d CPUs, seed %d\n",
		doc.GoVersion, doc.GOOS, doc.GOARCH, doc.NumCPU, opts.Seed)
	ok := true
	var mesh *meshReference
	for _, w := range opts.Workloads {
		res, err := runWorkload(opts, w, &mesh)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		doc.Results = append(doc.Results, res)
		ok = ok && res.Correct
		printResult(opts.Stdout, res)
		if err := printLine(opts.Stdout, res, opts.Trace); err != nil {
			return false, err
		}
	}
	if opts.Out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(opts.Out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runWorkload runs one workload's passes in child processes and assembles
// its result.
func runWorkload(opts Options, w Workload, mesh **meshReference) (*Result, error) {
	reps := opts.Reps
	if opts.Trace == "1" {
		reps = 1
	}
	var untraced []*Rep
	for measured := 0.0; ; {
		fmt.Fprintf(opts.Stderr, "stablbench: %s: repetition %d\n", w.Name, len(untraced)+1)
		rep, err := spawn(opts, w.Name, false)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, rep)
		measured += rep.Host.WallS
		if opts.Seconds > 0 && opts.Trace != "1" {
			if measured >= opts.Seconds {
				break
			}
		} else if len(untraced) >= reps {
			break
		}
	}
	if w.Name == "scale-mesh" {
		*mesh = &meshReference{digest: untraced[0].Digest, wallS: medianOf(untraced, func(r *Rep) float64 { return r.Host.WallS })}
	}
	if w.Name == "scale-mesh-par2" && *mesh == nil {
		// The parallel kernel's outputs are checked against the
		// sequential kernel's on every invocation, so run that too.
		fmt.Fprintf(opts.Stderr, "stablbench: %s: sequential reference\n", w.Name)
		ref, err := spawn(opts, "scale-mesh", false)
		if err != nil {
			return nil, err
		}
		*mesh = &meshReference{digest: ref.Digest, wallS: ref.Host.WallS}
	}
	var traced *Rep
	if opts.Trace != "0" {
		fmt.Fprintf(opts.Stderr, "stablbench: %s: traced pass\n", w.Name)
		var err error
		if traced, err = spawn(opts, w.Name, true); err != nil {
			return nil, err
		}
	}
	var ref *meshReference
	if w.Name == "scale-mesh-par2" {
		ref = *mesh
	}
	return assemble(w, untraced, traced, ref, opts.Trace != "1"), nil
}

// spawn runs one pass in a fresh child process, so that garbage-collector
// state, heap high-water mark and caches never leak from one repetition or
// workload into the next.
func spawn(opts Options, workload string, traced bool) (*Rep, error) {
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(opts.Seed, 10), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if opts.TraceOut != "" {
			args = append(args, "-trace-out", opts.TraceOut)
		}
	}
	cmd := exec.Command(opts.Exe, args...)
	cmd.Stderr = opts.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	rep := new(Rep)
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("child %v: bad result: %w", args, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.Host.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// Child is the child side of spawn: it runs one pass in this process, writes
// the traced pass's Chrome-trace file and CPU profile (for go tool pprof)
// into traceOut and prints the Rep.
func Child(w Workload, seed int64, traced bool, traceOut string, stdout io.Writer) error {
	rep, spans, prof, err := RunRep(w, seed, traced, false)
	if err != nil {
		return err
	}
	if traced && traceOut != "" {
		if err := os.MkdirAll(traceOut, 0o755); err != nil {
			return err
		}
		var chrome bytes.Buffer
		if err := trace.WriteChrome(&chrome, spans); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(traceOut, w.Name+".trace.json"), chrome.Bytes(), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(traceOut, w.Name+".cpu.pprof"), prof, 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func medianOf(reps []*Rep, get func(*Rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = get(r)
	}
	sort.Float64s(v)
	return median(v)
}

// assemble folds a workload's passes into its result. withEndToEnd is false
// when the single untraced repetition only exists to scale the traced pass
// against.
func assemble(w Workload, untraced []*Rep, traced *Rep, mesh *meshReference, withEndToEnd bool) *Result {
	first := untraced[0]
	res := &Result{
		Workload: w.Name, Why: w.Why, Seed: first.Seed, Reps: len(untraced),
		Attempted: first.Attempted, SimDigest: first.Digest, Counts: first.Counts,
		Integrity: first.Integrity,
	}
	all := untraced
	if traced != nil {
		all = append(append([]*Rep(nil), untraced...), traced)
	}
	for i, r := range all {
		res.Violations = append(res.Violations, r.Violations...)
		if r.Failed > res.Failed {
			res.Failed = r.Failed
		}
		// Every pass of a seed must simulate the same thing, the traced
		// pass included: slicing RunUntil and recording spans observe the
		// run, they must not steer it.
		if r.Digest != first.Digest || r.Counts != first.Counts {
			kind := "repetition"
			if r.Traced {
				kind = "traced pass"
			}
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s %d simulated %s (%+v), the first repetition %s (%+v)",
					kind, i+1, r.Digest[:12], r.Counts, first.Digest[:12], first.Counts))
		}
	}
	if mesh != nil && mesh.digest != first.Digest {
		res.Violations = append(res.Violations,
			fmt.Sprintf("parallel kernel simulated %s, sequential kernel %s", first.Digest[:12], mesh.digest[:12]))
	}
	res.Correct = len(res.Violations) == 0
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1
	}

	if withEndToEnd {
		commits := float64(first.Counts.Commits)
		get := map[string]func(*Rep) float64{
			"wall_s":             func(r *Rep) float64 { return r.Host.WallS },
			"setup_s":            func(r *Rep) float64 { return r.Host.SetupS },
			"wall_us_per_commit": func(r *Rep) float64 { return r.Host.WallS * 1e6 / commits },
			"allocs_per_commit":  func(r *Rep) float64 { return float64(r.Host.Mallocs) / commits },
			"live_heap_mb":       func(r *Rep) float64 { return r.Host.LiveHeapMB },
			"committed_share":    func(r *Rep) float64 { return commits / float64(r.Counts.Submitted) },
		}
		res.EndToEnd = make(map[string]Stat, len(EndToEnd))
		for _, d := range EndToEnd {
			v := make([]float64, len(untraced))
			for i, r := range untraced {
				v[i] = get[d.Name](r) // a declared metric without a getter is a bug: nil call panics
			}
			res.EndToEnd[d.Name] = newStat(d.Unit, v)
		}
	}

	if traced != nil {
		l := make(layerValues, len(traced.Layer)+8)
		for name, v := range traced.Layer {
			l[name] = v
		}
		// The runtime underneath is read from the untraced repetitions:
		// the profiler and the slice sampling of the traced pass would
		// show up in it.
		l.set("runtime.gc_cpu_frac", medianOf(untraced, func(r *Rep) float64 { return r.Host.GCCPUFrac }))
		l.set("runtime.gc_cycles", medianOf(untraced, func(r *Rep) float64 { return float64(r.Host.GCCycles) }))
		l.set("runtime.alloc_mb", medianOf(untraced, func(r *Rep) float64 { return float64(r.Host.AllocBytes) / (1 << 20) }))
		l.set("runtime.peak_rss_mb", medianOf(untraced, func(r *Rep) float64 { return r.Host.PeakRSSMB }))
		if first.Counts.Events > 0 {
			l.set("runtime.allocs_per_event", medianOf(untraced, func(r *Rep) float64 {
				return float64(r.Host.Mallocs) / float64(r.Counts.Events)
			}))
		}
		wall := medianOf(untraced, func(r *Rep) float64 { return r.Host.WallS })
		l.set("trace.overhead_frac", (traced.Host.WallS+traced.Host.SampleS)/wall-1)
		if mesh != nil {
			l.set("sim.par_wall_speedup", mesh.wallS/wall)
		}
		res.PerLayer = l
		res.SelfS = traced.SelfS
	}
	return res
}

// line is the driver's result object: the last line of standard output.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// printLine prints the workload's result object. With trace "0" the metrics
// are every end-to-end metric, with "1" every per-layer metric — the ones
// whose layer the workload does not run read zero — and otherwise both.
func printLine(w io.Writer, res *Result, passes string) error {
	out := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]Value)}
	if passes != "1" {
		for name, s := range res.EndToEnd {
			out.Metrics[name] = Value{Value: s.Median, Unit: s.Unit}
		}
	}
	if passes != "0" {
		for _, d := range PerLayer {
			out.Metrics[d.Name] = Value{Unit: d.Unit}
		}
		for name, v := range res.PerLayer {
			out.Metrics[name] = v
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// printResult prints the human-readable report of one workload.
func printResult(w io.Writer, res *Result) {
	fmt.Fprintf(w, "\n== %s — %s\n", res.Workload, res.Why)
	c := res.Counts
	fmt.Fprintf(w, "simulated (exact for seed %d): sim_digest %s\n", res.Seed, res.SimDigest[:16])
	fmt.Fprintf(w, "  tx_committed %d  tx_submitted %d\n", c.Commits, c.Submitted)
	if c.Cells > 0 {
		fmt.Fprintf(w, "  cells %d  families %d  fork_served %d  full_replays %d\n",
			c.Cells, c.Families, c.ForkServed, c.FullReplays)
	} else {
		fmt.Fprintf(w, "  events %d  sends %d  delivered %d  dropped %d  max_height %d  integrity_errors %d\n",
			c.Events, c.Sent, c.Delivered, c.Dropped, c.MaxHeight, c.IntegrityErrors)
	}
	if res.EndToEnd != nil {
		fmt.Fprintf(w, "end to end (tracing off, host numbers: median of %d repetitions [min .. max]):\n", res.Reps)
		for _, d := range EndToEnd {
			s := res.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-22s %14.6g %-10s [%.6g .. %.6g]\n", d.Name, s.Median, s.Unit, s.Min, s.Max)
		}
	}
	if res.PerLayer != nil {
		fmt.Fprintln(w, "per layer (traced pass, probes and profile):")
		for _, d := range PerLayer {
			if v, ok := res.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-42s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
		fmt.Fprintln(w, "span self time (span minus its children):")
		names := make([]string, 0, len(res.SelfS))
		for name := range res.SelfS {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-42s %14.6f s\n", name, res.SelfS[name])
		}
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, v := range res.Integrity {
		fmt.Fprintf(w, "FAILED RUN: hash chain: %s\n", v)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", v)
	}
}

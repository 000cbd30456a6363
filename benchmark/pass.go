package benchmark

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"stabl"
	"stabl/benchmark/trace"
	"stabl/internal/campaign"
	"stabl/internal/core"
	recorder "stabl/internal/metrics"
)

// Rep is what one execution of one workload in one process measured. The
// parent process gathers one Rep per repetition from its children.
type Rep struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Digest hashes every simulated output of the pass; see digestRun.
	Digest string `json:"digest"`
	// Violations lists failed correctness checks; empty on a correct run.
	Violations []string `json:"violations,omitempty"`
	// Attempted and Failed count the benchmark's operations: simulation
	// runs, or campaign cells. One fails when it breaks an invariant or has
	// an entry in Integrity.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Integrity lists the hash-chain violations the monitor observed, by
	// run. They fail the run, not the pass; see account.
	Integrity []string `json:"integrity,omitempty"`
	Counts    Counts   `json:"counts"`
	Host      Host     `json:"host"`
	// Layer holds the per-layer metrics; set on the traced pass only.
	Layer layerValues `json:"layer,omitempty"`
	// SelfS is self time in seconds by span name, traced pass only.
	SelfS map[string]float64 `json:"selfS,omitempty"`
}

// Counts are the simulated, seed-exact totals of a pass.
type Counts struct {
	Events    uint64 `json:"events"`
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	// Commits and Submitted are transactions: committed on chain, and
	// issued by clients (for the campaign: clients × rate × duration per
	// cell, the public result carries no submission count).
	Commits   int                `json:"commits"`
	Submitted int                `json:"submitted"`
	Pending   int                `json:"pending"`
	MaxHeight int                `json:"maxHeight"`
	Overlay   stabl.OverlayStats `json:"overlay"`
	// IntegrityErrors counts hash-chain violations the monitor observed.
	IntegrityErrors int `json:"integrityErrors"`
	// ParWindows counts the parallel kernel's lookahead windows.
	ParWindows  uint64 `json:"parWindows,omitempty"`
	Cells       int    `json:"cells,omitempty"`
	Families    int    `json:"families,omitempty"`
	ForkServed  int    `json:"forkServed,omitempty"`
	FullReplays int    `json:"fullReplays,omitempty"`
}

// Host are the host-side measurements of a pass, all noisy.
type Host struct {
	// WallS is the measured section: Σ(RunUntil+Collect+score), or the
	// RunCampaign call.
	WallS float64 `json:"wallS"`
	// SetupS is the median set-up pass (Σ(Build+Start), or the campaign's
	// parse+validate): the measured run's own and the ones repeatSetup adds.
	SetupS     float64 `json:"setupS"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"allocBytes"`
	LiveHeapMB float64 `json:"liveHeapMB"`
	GCCPUFrac  float64 `json:"gcCPUFrac"`
	GCCycles   uint32  `json:"gcCycles"`
	// PeakRSSMB is the child's getrusage maximum, filled in by the parent.
	PeakRSSMB float64 `json:"peakRSSMB,omitempty"`

	BuildS   float64 `json:"buildS"`
	StartS   float64 `json:"startS"`
	RunS     float64 `json:"runS"`
	CollectS float64 `json:"collectS"`
	ScoreS   float64 `json:"scoreS"`
	// RunPre/Fault/PostS split RunS by the fault window (traced pass).
	RunPreS   float64 `json:"runPreS,omitempty"`
	RunFaultS float64 `json:"runFaultS,omitempty"`
	RunPostS  float64 `json:"runPostS,omitempty"`
	// SampleS is the traced pass's reading of the counts between slices.
	SampleS float64 `json:"sampleS,omitempty"`
	// ParBusyS and ParCriticalS are the parallel kernel's own accounting.
	ParBusyS     float64 `json:"parBusyS,omitempty"`
	ParCriticalS float64 `json:"parCriticalS,omitempty"`
	// Systems holds each chain's RunUntil time and events.
	Systems map[string]SystemCost `json:"systems,omitempty"`
	// CellMs are the gaps between campaign progress callbacks.
	CellMs []float64 `json:"cellMs,omitempty"`
}

// SystemCost is one chain model's share of a workload.
type SystemCost struct {
	RunS   float64 `json:"runS"`
	Events uint64  `json:"events"`
}

// pass is one execution of one workload in this process.
type pass struct {
	sz  size
	rec *trace.Recorder // nil on the untraced pass
	rep *Rep
	sum hash.Hash
	// lastPair holds the baseline and altered latencies of the last pair,
	// the input of the traced pass's stats probe.
	lastPair [2][]float64
}

// RunRep executes one pass of a workload in this process: the measured
// section, the extra set-up passes and, when traced, the layer probes and
// the CPU-profile attribution. It also returns a traced pass's spans and its
// CPU profile as runtime/pprof wrote it.
func RunRep(w Workload, seed int64, traced, short bool) (*Rep, []trace.Span, []byte, error) {
	p := &pass{
		sz:  sizeFor(short),
		rep: &Rep{Workload: w.Name, Seed: seed, Traced: traced},
		sum: sha256.New(),
	}
	var prof bytes.Buffer
	if traced {
		p.rec = trace.NewRecorder()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, nil, err
		}
	}
	before := readRuntime()
	root := p.rec.Begin(w.Name, "")
	var err error
	if w.units != nil {
		err = p.runUnits(w.units(seed, p.sz))
	} else {
		err = p.runCampaign(seed)
	}
	p.rec.End(root)
	after := readRuntime()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	h := &p.rep.Host
	h.Mallocs = after.mallocs - before.mallocs
	h.AllocBytes = after.allocBytes - before.allocBytes
	h.GCCycles = after.gcCycles - before.gcCycles
	if busy := (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU); busy > 0 {
		h.GCCPUFrac = (after.gcCPU - before.gcCPU) / busy
	}
	h.WallS = h.RunS + h.CollectS + h.ScoreS
	if p.rep.Counts.Commits == 0 {
		// Every end-to-end metric is per committed transaction.
		return nil, nil, nil, fmt.Errorf("benchmark: %s committed no transaction", w.Name)
	}
	p.rep.Digest = hex.EncodeToString(p.sum.Sum(nil))

	// The measured run's set-up is one sample; take more now that the
	// measured section is over, so repeating set-up cannot warm it.
	if err := p.repeatSetup(w, seed); err != nil {
		return nil, nil, nil, err
	}
	if traced {
		if err := p.layerMetrics(w, seed, prof.Bytes()); err != nil {
			return nil, nil, nil, err
		}
	}
	return p.rep, p.rec.Spans(), prof.Bytes(), nil
}

// phase runs fn inside a span and adds its duration to acc, if any.
func (p *pass) phase(name, run string, acc *float64, fn func()) {
	id := p.rec.Begin(name, run)
	start := trace.Now()
	fn()
	if acc != nil {
		*acc += (trace.Now() - start).Seconds()
	}
	p.rec.End(id)
}

// violate records a failed correctness check.
func (p *pass) violate(format string, args ...any) {
	p.rep.Violations = append(p.rep.Violations, fmt.Sprintf(format, args...))
}

// runUnits drives every unit through the public phase functions.
func (p *pass) runUnits(units []unit) error {
	p.rep.Host.Systems = make(map[string]SystemCost)
	for _, u := range units {
		if u.pair {
			if _, err := p.runPair(u); err != nil {
				return err
			}
			continue
		}
		p.rep.Attempted++
		if _, err := p.runExperiment(u.label, "run", u.cfg(), slicing{every: u.slice}); err != nil {
			return err
		}
	}
	return nil
}

// runPair is stabl.Compare composed from its phases: the baseline run, the
// altered run and the score.
func (p *pass) runPair(u unit) (*core.Comparison, error) {
	cfg := u.cfg()
	p.rep.Attempted += 2
	plan := slicing{every: u.slice, inject: cfg.Fault.InjectAt, recover: cfg.Fault.RecoverAt}
	baseline, err := p.runExperiment(u.label, "baseline", core.BaselineConfig(cfg), plan)
	if err != nil {
		return nil, err
	}
	altered, err := p.runExperiment(u.label, "altered", core.AlteredConfig(cfg), plan)
	if err != nil {
		return nil, err
	}
	var cmp *core.Comparison
	p.phase("core.Score", u.label+"/altered", &p.rep.Host.ScoreS, func() {
		cmp, err = core.ScoreWithBaseline(cfg, baseline, altered)
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(p.sum, "%s score=%v infinite=%v benefit=%v recovered=%v recovery=%v\n",
		u.label, cmp.Score.Value, cmp.Score.Infinite, cmp.Score.Benefit, cmp.Recovered, cmp.RecoveryTime)
	p.lastPair = [2][]float64{baseline.Latencies, altered.Latencies}
	return cmp, nil
}

// slicing says how the traced pass issues RunUntil: in slices of every
// virtual seconds, cut at the fault window's edges and tagged by it. A pair's
// baseline is sliced like its altered twin so the two line up; without a
// window everything is pre-fault.
type slicing struct{ every, inject, recover time.Duration }

func (w slicing) tag(at time.Duration) string {
	switch {
	case w.recover > 0 && at >= w.recover:
		return "post"
	case w.inject > 0 && at >= w.inject:
		return "fault"
	}
	return "pre"
}

// runExperiment executes one run: Build, Start, RunUntil, Collect, with the
// correctness checks every run must pass.
func (p *pass) runExperiment(label, kind string, cfg core.Config, plan slicing) (*core.RunResult, error) {
	run := label + "/" + kind
	h := &p.rep.Host
	span := p.rec.Begin("run", run)
	defer p.rec.End(span)

	var exp *core.Experiment
	var err error
	p.phase("core.Build", run, &h.BuildS, func() { exp, err = core.Build(cfg) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", run, err)
	}
	p.phase("core.Start", run, &h.StartS, exp.Start)
	runBefore := h.RunS
	p.advance(exp, run, plan)

	// The retained simulator state: what is still reachable once the run
	// has finished, with the experiment alive until Collect below. Unlike
	// peak RSS it repeats from run to run.
	p.phase("bench.live_heap", run, nil, func() { h.LiveHeapMB = math.Max(h.LiveHeapMB, liveHeapMB()) })

	var res *core.RunResult
	p.phase("core.Collect", run, &h.CollectS, func() { res = exp.Collect() })

	sys := h.Systems[label]
	sys.RunS += h.RunS - runBefore
	sys.Events += res.Events
	h.Systems[label] = sys
	h.ParBusyS += res.SimBusyWall.Seconds()
	h.ParCriticalS += res.SimCriticalWall.Seconds()
	p.account(run, res)
	return res, nil
}

// liveHeapMB forces a collection and returns what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// advance runs the experiment to its end. Untraced it is one RunUntil; the
// traced pass issues RunUntil in virtual-time slices cut at the fault
// window's edges, and reads the counts at every slice boundary.
func (p *pass) advance(exp *core.Experiment, run string, plan slicing) {
	h := &p.rep.Host
	end := exp.Config().Duration
	if p.rec == nil {
		start := trace.Now()
		exp.RunUntil(end)
		h.RunS += (trace.Now() - start).Seconds()
		return
	}
	slice := plan.every
	if exp.Config().SimWorkers > 0 {
		// The parallel kernel tears its worker channels down when RunUntil
		// returns and a second call panics on them, so a parallel run is
		// one slice.
		slice = end
	}
	var events uint64
	commits := 0
	for at := time.Duration(0); at < end; {
		next := at + slice
		for _, edge := range []time.Duration{plan.inject, plan.recover, end} {
			if edge > at && edge < next {
				next = edge
			}
		}
		tag := plan.tag(at)
		acc := map[string]*float64{"pre": &h.RunPreS, "fault": &h.RunFaultS, "post": &h.RunPostS}[tag]
		id := p.rec.Begin("core.RunUntil."+tag, run)
		start := trace.Now()
		exp.RunUntil(next)
		d := (trace.Now() - start).Seconds()
		p.rec.End(id)
		*acc += d
		h.RunS += d

		// Collect only reads state, so sampling it between slices leaves
		// the run untouched; its cost is the tracing's, not RunUntil's.
		var res *core.RunResult
		p.phase("bench.sample", run, &h.SampleS, func() { res = exp.Collect() })
		p.rec.SetArgs(id, map[string]float64{
			"virtual_s": next.Seconds(),
			"events":    float64(res.Events - events),
			"commits":   float64(res.UniqueCommits - commits),
		})
		events, commits = res.Events, res.UniqueCommits
		at = next
	}
}

// account checks one run's invariants and folds it into the counts and the
// digest.
func (p *pass) account(run string, res *core.RunResult) {
	ns := res.NetStats
	dropped := ns.DroppedPartition + ns.DroppedConnDown + ns.DroppedNodeDown +
		ns.DroppedInFlight + ns.DroppedSenderDown + ns.DroppedLoss
	// A run whose outputs break an invariant is a failed operation, and
	// broken conservation fails the pass as well. A broken hash chain does
	// not: at seed 42 there is none, but on about every other seed Aptos's
	// altered run trips the monitor's parent-link check after the transient
	// failure (README.md, "Findings"), and the driver measures on seeds nobody
	// has seen. Such a run is counted in failed, where the driver sees it and
	// -compare reads a rise as worse.
	failed := len(res.IntegrityErrors) > 0
	for _, e := range res.IntegrityErrors {
		p.rep.Integrity = append(p.rep.Integrity, run+": "+e)
	}
	if ns.Sent < ns.Delivered+dropped {
		p.violate("%s: sent %d < delivered %d + dropped %d", run, ns.Sent, ns.Delivered, dropped)
		failed = true
	}
	if res.UniqueCommits > res.Submitted {
		p.violate("%s: %d commits exceed %d submissions", run, res.UniqueCommits, res.Submitted)
		failed = true
	}
	if failed {
		p.rep.Failed++
	}

	c := &p.rep.Counts
	c.Events += res.Events
	c.Sent += ns.Sent
	c.Delivered += ns.Delivered
	c.Dropped += dropped
	c.Commits += res.UniqueCommits
	c.Submitted += res.Submitted
	c.Pending += res.Pending
	if res.MaxHeight > c.MaxHeight {
		c.MaxHeight = res.MaxHeight
	}
	c.Overlay.Add(res.Overlay)
	c.IntegrityErrors += len(res.IntegrityErrors)
	c.ParWindows += res.SimWindows
	digestRun(p.sum, run, res)
}

// digestRun hashes everything a run simulated: events, network counters,
// commits, submissions, height, overlay counters and the latency multiset.
// Host-side fields (parallel wall times, worker count) stay out, so the
// sequential and the parallel kernel must produce the same digest.
func digestRun(h hash.Hash, run string, res *core.RunResult) {
	fmt.Fprintf(h, "%s events=%d net=%+v commits=%d submitted=%d pending=%d height=%d last=%v overlay=%+v faulty=%v integrity=%q\n",
		run, res.Events, res.NetStats, res.UniqueCommits, res.Submitted, res.Pending,
		res.MaxHeight, res.LastCommitAt, res.Overlay, res.FaultyNodes, res.IntegrityErrors)
	lat := append([]float64(nil), res.Latencies...)
	sort.Float64s(lat)
	var buf [8]byte
	for _, v := range lat {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// runCampaign drives the campaign workload through stabl.RunCampaign with
// one worker and per-cell recorders on.
func (p *pass) runCampaign(seed int64) error {
	h := &p.rep.Host
	var spec campaign.Spec
	var cells int
	var err error
	p.phase("campaign.parse_expand", "", &h.BuildS, func() { spec, cells, err = campaignSpec(seed, p.sz) })
	if err != nil {
		return err
	}

	committed := 0
	last := trace.Now()
	var paused time.Duration // spent sampling the heap inside RunCampaign
	var heap []float64
	opts := stabl.CampaignOptions{
		Workers: 1,
		Metrics: func(cell stabl.CampaignCoord, rec *recorder.Recorder) {
			n := int(rec.CounterTotal("tx_committed"))
			committed += n
			fmt.Fprintf(p.sum, "%s tx_committed=%d\n", cell.Slug(), n)
		},
		Progress: func(done, total int, res *stabl.CampaignCell) {
			now := trace.Now()
			h.CellMs = append(h.CellMs, float64(now-last)/float64(time.Millisecond))
			p.rec.Add("campaign.cell", res.Cell.Slug(), last, now, map[string]float64{"cell": float64(done)})
			// The retained simulator state: between two cells of a family
			// the engine still holds the live experiment and its
			// checkpoint. The clock stops while the heap is sampled.
			heap = append(heap, liveHeapMB())
			last = trace.Now()
			paused += last - now
			p.rec.Add("bench.live_heap", res.Cell.Slug(), now, last, nil)
		},
	}
	var result *stabl.CampaignResult
	p.phase("stabl.RunCampaign", "", &h.RunS, func() {
		result, err = stabl.RunCampaign(context.Background(), spec, opts)
	})
	if err != nil {
		return err
	}
	h.RunS -= paused.Seconds()
	// The median over the cell boundaries, not the maximum: the backlog the
	// lossy cells leave behind swings by tens of MiB from seed to seed.
	sort.Float64s(heap)
	h.LiveHeapMB = median(heap)

	p.rep.Attempted = cells
	for _, cell := range result.Cells {
		if cell.Error != "" {
			p.violate("cell %s: %s", cell.Cell, cell.Error)
			p.rep.Failed++
		}
	}
	c := &p.rep.Counts
	c.Cells = result.TotalCells
	if cp := result.Checkpoint; cp != nil {
		c.Families, c.ForkServed, c.FullReplays = cp.Families, cp.ForkServed, cp.FullReplays
	}
	if c.ForkServed != p.sz.forkServed {
		p.violate("campaign served %d cells from checkpoints, want %d", c.ForkServed, p.sz.forkServed)
	}
	base := spec.Base
	c.Commits = committed
	c.Submitted = int(float64(base.Clients) * base.RatePerClient * base.DurationSec * float64(cells))
	if c.Commits > c.Submitted {
		p.violate("campaign: %d commits exceed %d submissions", c.Commits, c.Submitted)
	}
	var doc bytes.Buffer
	if err := result.WriteJSON(&doc); err != nil {
		return err
	}
	p.sum.Write(doc.Bytes())
	return nil
}

// minSetupPasses is how many set-up passes a repetition adds at least. It
// goes on adding until size.setupTarget is spent: set-up ranges from tens of
// microseconds (the campaign's spec) to a third of a second (a 2048-validator
// build), and the median of a few passes of the former is all timer noise.
const minSetupPasses = 4

// repeatSetup runs the workload's set-up several more times, discarding what
// it builds, and sets Host.SetupS to the median pass. The driver gates
// set-up time on its own, so that work moved out of the measured section
// shows; one pass per process would make that gate a coin toss.
func (p *pass) repeatSetup(w Workload, seed int64) error {
	h := &p.rep.Host
	passes := []float64{h.BuildS + h.StartS}
	once := func() (float64, error) {
		if w.units == nil {
			start := trace.Now()
			_, _, err := campaignSpec(seed, p.sz)
			return (trace.Now() - start).Seconds(), err
		}
		var total time.Duration
		for _, u := range w.units(seed, p.sz) {
			cfg := u.cfg()
			cfgs := []core.Config{cfg}
			if u.pair {
				cfgs = []core.Config{core.BaselineConfig(cfg), core.AlteredConfig(cfg)}
			}
			for _, c := range cfgs {
				start := trace.Now()
				exp, err := core.Build(c)
				if err != nil {
					return 0, err
				}
				exp.Start()
				total += trace.Now() - start
			}
		}
		return total.Seconds(), nil
	}
	begin := trace.Now()
	for i := 0; i < minSetupPasses || trace.Now()-begin < p.sz.setupTarget; i++ {
		s, err := once()
		if err != nil {
			return err
		}
		passes = append(passes, s)
	}
	sort.Float64s(passes)
	h.SetupS = median(passes)
	return nil
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	mallocs, allocBytes      uint64
	gcCycles                 uint32
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	cpu := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC,
		gcCPU: cpu(samples[0]), totalCPU: cpu(samples[1]), idleCPU: cpu(samples[2]),
	}
}

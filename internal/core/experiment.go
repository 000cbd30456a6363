// Package core implements STABL itself: it deploys a blockchain model on the
// simulated network, drives the DIABLO-style constant workload against it,
// injects faults through observer processes, and computes the sensitivity
// score between a baseline and an altered run (STABL §3).
package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"stabl/internal/chain"
	"stabl/internal/client"
	"stabl/internal/metrics"
	"stabl/internal/observer"
	"stabl/internal/overlay"
	"stabl/internal/parsim"
	"stabl/internal/scenario"
	"stabl/internal/sim"
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
	"stabl/internal/stats"
	"stabl/internal/workload"
)

// FaultKind selects the adversarial environment of an experiment.
type FaultKind int

// Fault kinds, mirroring the paper's four dependability attributes. The zero
// value is the fault-free baseline.
const (
	// FaultNone runs the fault-free baseline.
	FaultNone FaultKind = iota
	// FaultCrash permanently kills Count nodes at InjectAt (§4).
	FaultCrash
	// FaultTransient kills Count nodes at InjectAt and reboots them at
	// RecoverAt (§5).
	FaultTransient
	// FaultPartition isolates Count nodes from the rest between InjectAt
	// and RecoverAt (§6).
	FaultPartition
	// FaultSecureClient injects no failures but makes every client
	// submit to t+1 validators and wait for all their answers (§7).
	FaultSecureClient
	// FaultSlow injects transient communication delays: between InjectAt
	// and RecoverAt every message to or from the Count affected nodes is
	// delayed by SlowBy (tc-netem style). The paper observed that such
	// delays crash all Solana nodes (§2) and that Avalanche "stops
	// working when some messages arrive 2 minutes late" (§5).
	FaultSlow
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultCrash:
		return "crash"
	case FaultTransient:
		return "transient"
	case FaultPartition:
		return "partition"
	case FaultSecureClient:
		return "secure-client"
	case FaultSlow:
		return "slow"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultPlan describes the altered environment.
type FaultPlan struct {
	Kind FaultKind
	// Count is f, the number of affected nodes; ignored for
	// FaultSecureClient. Zero means "chain tolerance + delta", see
	// Config.
	Count int
	// InjectAt is when the failure starts.
	InjectAt time.Duration
	// RecoverAt is when transient failures recover / partitions heal.
	RecoverAt time.Duration
	// SlowBy is the injected per-interface delay for FaultSlow; defaults
	// to 30 seconds.
	SlowBy time.Duration
}

// Config describes one run. The defaults mirror the paper's settings: 10
// validator nodes, 5 clients at 40 tx/s each (200 TPS total), 400 virtual
// seconds, faults injected at 133 s on the 5 nodes without clients and
// recovered at 266 s.
type Config struct {
	System            chain.System
	Seed              int64
	Validators        int
	Clients           int
	RatePerClient     float64
	AccountsPerClient int
	Duration          time.Duration
	// Flows is how many load-client endpoints carry the Clients modeled
	// clients (see workload.Flow, client.FlowClient). Zero is the paper's
	// deployment: one single-member flow per client, client i attached to
	// validator i, so Clients may not exceed Validators. A positive value
	// aggregates: Clients then counts *modeled* clients — it may exceed
	// Validators and reach into the millions — while the deployment
	// carries one network endpoint and one event loop per flow.
	Flows int
	// FlowAccounts caps each flow's folded sender-account set. Zero
	// disables folding (every modeled client owns AccountsPerClient
	// distinct accounts); a positive cap folds the modeled clients onto at
	// most this many accounts per flow, so ledger and genesis state stay
	// bounded at any client count. Only meaningful with Flows > 0.
	FlowAccounts int
	// CommitteeSize, when positive, runs consensus on stake-weighted
	// sortition committees of this size (internal/committee) instead of
	// the full validator set, making per-round protocol work O(committee)
	// rather than O(n). Requires a System that supports committees
	// (currently Algorand). Zero keeps full-membership consensus.
	CommitteeSize int
	// Overlay, when enabled (non-empty Topology), routes every validator
	// broadcast over a structured gossip overlay (internal/overlay) instead
	// of the legacy full mesh: kadcast broadcast trees, ring-with-shortcuts
	// or random regular graphs, with duplicate suppression and stall
	// detection. All validator-to-validator traffic — relays, replies, pull
	// gossip, Snowball samples — stays on overlay edges, so per-tx
	// dissemination costs O(fanout·log n) origin sends instead of O(n). The
	// zero value keeps the legacy mesh, byte-identical to builds that never
	// construct an overlay.
	Overlay overlay.Config
	// DisableConnLayer skips the managed TCP-like connection layer, whose
	// per-pair state and heartbeats cost O(Validators^2) — prohibitive at
	// 10k nodes. Without it, links are always up: partition/crash faults
	// still apply (they gate sends directly), but reconnect dynamics
	// disappear. ROADMAP item 2 (sparse overlays) is the structural fix.
	DisableConnLayer bool
	// Fanout is how many validators each client submits to (1 = the
	// default SDK; Tolerance+1 = the secure client).
	Fanout int
	// Profile shapes every client's send rate over time (nil =
	// constant, the paper's workload).
	Profile    workload.Profile
	RetryAfter time.Duration
	MaxRetries int
	Latency    simnet.LatencyModel
	Fault      FaultPlan
	// Scenario, when set, describes the adversarial environment as a
	// composed multi-phase fault timeline (crash/partition/slow/loss/jitter/
	// flap actions over node sets, see internal/scenario) instead of one
	// paper-style fault. A non-none Fault.Kind is itself lowered to a
	// one-action scenario (Timeline), so a config sets one or the other,
	// never both.
	Scenario *scenario.Scenario
	// ReadRate, when positive, deploys one credence.js-style verified
	// reader per client: each issues ReadRate account reads per second
	// to Tolerance+1 validators and accepts a value only on unanimity
	// (§9 future work).
	ReadRate float64
	// TraceWriter, when set, receives one line per network lifecycle
	// event (crashes, reboots, partitions, connection churn) — the
	// transitions that decide an experiment's outcome.
	TraceWriter io.Writer
	// Metrics, when set, records the run's virtual-time instrumentation:
	// commit counters and latencies, periodic mempool/backlog gauges,
	// consensus events from the chain model and the network trace. One
	// recorder instruments exactly one run — Compare attaches it to the
	// altered run only, and BaselineConfig clears it. Recording draws no
	// randomness, so it never changes what the run measures.
	Metrics *metrics.Recorder
	// LivenessGrace: if the altered run's last commit is older than this
	// at the end of the experiment, liveness was lost and the
	// sensitivity is infinite.
	LivenessGrace time.Duration
	// Bucket is the throughput series granularity.
	Bucket time.Duration
	// SimWorkers, when positive, runs the simulation on the conservative
	// parallel kernel with this many partition queues (internal/sim's
	// EnableParallel): validators, clients and readers are spread over the
	// queues (internal/parsim) and advanced concurrently in lookahead
	// windows bounded by the latency model's static lower bound. Every
	// measured output is byte-identical to the sequential kernel at every
	// worker count — the parallel goldens enforce this — so the knob only
	// trades wall-clock time, never results. Zero (the default) keeps the
	// sequential kernel. Runs whose latency model has no positive lower
	// bound (no DelayLowerBound) fall back to sequential, as do forked
	// continuations (checkpoints snapshot the sequential layout).
	SimWorkers int
}

func (c Config) withDefaults() Config {
	if c.Validators == 0 {
		c.Validators = 10
	}
	if c.Clients == 0 {
		c.Clients = 5
	}
	if c.RatePerClient == 0 {
		c.RatePerClient = 40
	}
	if c.AccountsPerClient == 0 {
		c.AccountsPerClient = 8
	}
	if c.Duration == 0 {
		c.Duration = 400 * time.Second
	}
	if c.Fanout == 0 {
		c.Fanout = 1
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 30 * time.Second
	}
	if c.LivenessGrace == 0 {
		c.LivenessGrace = 30 * time.Second
	}
	if c.Bucket == 0 {
		c.Bucket = time.Second
	}
	if c.Fault.InjectAt == 0 {
		c.Fault.InjectAt = 133 * time.Second
	}
	if c.Fault.RecoverAt == 0 {
		c.Fault.RecoverAt = 266 * time.Second
	}
	if c.Fault.SlowBy == 0 {
		c.Fault.SlowBy = 30 * time.Second
	}
	return c
}

// Validate reports whether the materialized config (with defaults applied)
// describes a runnable experiment, without running it. The CLI's
// `stabl spec -validate` uses it to lint spec files.
func (c Config) Validate() error {
	_, err := c.withDefaults().validate()
	return err
}

// validate checks the materialized config and returns the fault timeline it
// compiled on the way: node ranges, pool sizes and the horizon are only
// checkable against the lowered timeline, and Build keeps it.
func (c Config) validate() (*scenario.Compiled, error) {
	if c.System == nil {
		return nil, fmt.Errorf("core: config needs a System")
	}
	if c.SimWorkers < 0 {
		return nil, fmt.Errorf("core: negative sim worker count %d", c.SimWorkers)
	}
	// Zero meant "default" and withDefaults replaced it; what is left is the
	// caller's own value, and a negative size, rate or horizon has no
	// deployment. NaN fails the >= comparison.
	badRate := func(r float64) bool { return !(r >= 0) || math.IsInf(r, 1) }
	for _, f := range []struct {
		name string
		bad  bool
		v    any
	}{
		{"Validators", c.Validators < 0, c.Validators},
		{"Clients", c.Clients < 0, c.Clients},
		{"RatePerClient", badRate(c.RatePerClient), c.RatePerClient},
		{"AccountsPerClient", c.AccountsPerClient < 0, c.AccountsPerClient},
		{"Duration", c.Duration < 0, c.Duration},
		{"Fanout", c.Fanout < 0, c.Fanout},
		{"RetryAfter", c.RetryAfter < 0, c.RetryAfter},
		{"MaxRetries", c.MaxRetries < 0, c.MaxRetries},
		{"ReadRate", badRate(c.ReadRate), c.ReadRate},
		{"Fault.InjectAt", c.Fault.InjectAt < 0, c.Fault.InjectAt},
		{"Fault.Count", c.Fault.Count < 0, c.Fault.Count},
		{"Fault.SlowBy", c.Fault.SlowBy < 0, c.Fault.SlowBy},
	} {
		if f.bad {
			return nil, fmt.Errorf("core: %s = %v: must be finite and not negative", f.name, f.v)
		}
	}
	// A healing fault that heals first would revert nothing and then inject
	// for good. Equality is a zero-length outage, which campaigns sweep;
	// crash and secure-client plans never read RecoverAt.
	if c.Fault.Kind.Recovers() && c.Fault.RecoverAt < c.Fault.InjectAt {
		return nil, fmt.Errorf("core: Fault.RecoverAt = %v: must not precede Fault.InjectAt = %v", c.Fault.RecoverAt, c.Fault.InjectAt)
	}
	if c.Flows < 0 {
		return nil, fmt.Errorf("core: negative flow count %d", c.Flows)
	}
	if c.Flows > c.Clients {
		return nil, fmt.Errorf("core: %d flows cannot model only %d clients", c.Flows, c.Clients)
	}
	if c.FlowAccounts < 0 {
		return nil, fmt.Errorf("core: negative flow account cap %d", c.FlowAccounts)
	}
	if c.FlowAccounts > 0 && c.Flows == 0 {
		return nil, fmt.Errorf("core: flowAccounts needs flows > 0")
	}
	if c.CommitteeSize < 0 {
		return nil, fmt.Errorf("core: negative committee size %d", c.CommitteeSize)
	}
	if err := c.Overlay.Validate(); err != nil {
		return nil, err
	}
	if c.Overlay.Enabled() && c.Validators < 2 {
		return nil, fmt.Errorf("core: overlay needs at least 2 validators, got %d", c.Validators)
	}
	if c.CommitteeSize > 0 {
		if _, ok := c.System.(committeeSystem); !ok {
			return nil, fmt.Errorf("core: system %s does not support sortition committees", c.System.Name())
		}
	}
	if c.Flows == 0 && c.Clients > c.Validators {
		return nil, fmt.Errorf("core: %d clients need at most %d validators", c.Clients, c.Validators)
	}
	if c.Scenario != nil && c.Fault.Kind != FaultNone {
		return nil, fmt.Errorf("core: config sets both Fault (%s) and Scenario (%s); they are mutually exclusive",
			c.Fault.Kind, c.Scenario.Name)
	}
	compiled, err := c.Timeline()
	if err != nil {
		return nil, err
	}
	// A fault that fires at or past the horizon never fires: the run would
	// score a fault-free system against itself.
	if compiled.FirstDisrupt >= c.Duration {
		return nil, fmt.Errorf("core: the first fault fires at %v, not before the run ends (Duration = %v)",
			compiled.FirstDisrupt, c.Duration)
	}
	if c.Fanout > c.clientFacing() {
		return nil, fmt.Errorf("core: fanout %d exceeds the %d client-facing validators", c.Fanout, c.clientFacing())
	}
	return compiled, nil
}

// committeeSystem is implemented by systems whose consensus can run on
// sortition committees (internal/committee).
type committeeSystem interface {
	SetCommitteeSize(size int)
}

// clientFacing is how many validators serve client traffic. With Flows zero
// it is Clients (client i submits to validator i, the paper's deployment);
// aggregated flows model more clients than there are validators, so they
// spread their members across every validator the worst-case default fault
// plan (f = tolerance+1) never touches — keeping the pool independent of the
// swept fault so baseline and altered runs deploy identically.
func (c Config) clientFacing() int {
	if c.Flows == 0 {
		return c.Clients
	}
	p := c.Validators - (c.System.Tolerance(c.Validators) + 1)
	if p < 1 {
		p = 1
	}
	if c.Clients < p {
		p = c.Clients
	}
	return p
}

// NeedsNodes reports whether the kind affects a set of validator nodes (as
// opposed to altering only the client side, like FaultSecureClient).
func (k FaultKind) NeedsNodes() bool {
	switch k {
	case FaultCrash, FaultTransient, FaultPartition, FaultSlow:
		return true
	default:
		return false
	}
}

// Recovers reports whether the kind heals at FaultPlan.RecoverAt, making
// recovery and stabilization times meaningful.
func (k FaultKind) Recovers() bool {
	switch k {
	case FaultTransient, FaultPartition, FaultSlow:
		return true
	default:
		return false
	}
}

// Network id layout. The legacy bases are used whenever they fit — the
// seed-42 goldens pin the node ids they induce — and larger deployments
// (10k validators, many flows) switch to computed collision-free bases.
const (
	clientIDBase   = 100
	readerIDBase   = 500
	observerIDBase = 1000
	primaryID      = 2000
)

// idLayout resolves the network id bases for one deployment.
type idLayout struct {
	clientBase   int
	readerBase   int
	observerBase int
	primary      int
}

// clientNodes is how many client endpoints sit on the network: Flows, or one
// single-member flow per client when Flows is zero.
func (c Config) clientNodes() int {
	if c.Flows > 0 {
		return c.Flows
	}
	return c.Clients
}

// layout picks the id bases: legacy constants when the deployment fits
// under them (validators below the client base, client endpoints and
// readers inside their legacy windows), else bases packed directly above
// the validator range.
func (c Config) layout() idLayout {
	n := c.clientNodes()
	if c.Validators <= clientIDBase && n <= readerIDBase-clientIDBase && c.Validators <= primaryID-observerIDBase {
		return idLayout{clientBase: clientIDBase, readerBase: readerIDBase, observerBase: observerIDBase, primary: primaryID}
	}
	cb := c.Validators
	rb := cb + n
	ob := rb + n
	return idLayout{clientBase: cb, readerBase: rb, observerBase: ob, primary: ob + c.Validators}
}

// flowSpan is one flow's slice of the modeled-client and account spaces.
type flowSpan struct {
	start    int // global index of the flow's first modeled client
	clients  int // modeled clients in this flow
	acctBase int // first folded account address owned by the flow
	accts    int // folded account count
}

// flowSpans partitions the modeled clients into contiguous per-flow ranges
// and lays their (possibly folded) account sets out contiguously from
// address zero: client i owns accounts [i*AccountsPerClient,
// (i+1)*AccountsPerClient) when nothing folds.
func (c Config) flowSpans() []flowSpan {
	n := c.clientNodes()
	spans := make([]flowSpan, n)
	base, rem := c.Clients/n, c.Clients%n
	cs, as := 0, 0
	for i := range spans {
		k := base
		if i < rem {
			k++
		}
		a := k * c.AccountsPerClient
		if c.FlowAccounts > 0 && a > c.FlowAccounts {
			a = c.FlowAccounts
		}
		spans[i] = flowSpan{start: cs, clients: k, acctBase: as, accts: a}
		cs += k
		as += a
	}
	return spans
}

// RunResult is everything measured in one run.
type RunResult struct {
	// Latencies are client-observed commit latencies in seconds.
	Latencies []float64
	// Throughput is the chain-side unique-commit series.
	Throughput stats.TimeSeries
	// UniqueCommits is the chain-side count of distinct committed txs.
	UniqueCommits int
	// Submitted is the number of distinct transactions clients issued.
	Submitted int
	// Pending is how many never completed client-side.
	Pending int
	// LastCommitAt is the chain-side time of the final commit.
	LastCommitAt time.Duration
	// MaxHeight is the highest block applied anywhere.
	MaxHeight int
	// LivenessLost reports that commits stopped well before the end.
	LivenessLost bool
	// FaultyNodes lists the injected-fault targets.
	FaultyNodes []simnet.NodeID
	// Events counts scheduler events, a cost measure for benchmarks.
	Events uint64
	// NetStats snapshots network counters.
	NetStats simnet.Stats
	// Verified-read measurements (only when Config.ReadRate > 0).
	ReadLatencies   []float64
	Reads           int
	ReadMismatches  int
	ReadDivergences int
	// IntegrityErrors lists hash-chain violations the monitor observed
	// across the committed block sequence; always empty for a correct
	// deployment.
	IntegrityErrors []string
	// Overlay aggregates every validator router's counters; all zero when
	// the run used the legacy full mesh.
	Overlay overlay.Stats
	// Parallel-kernel measurements (zero when the run was sequential).
	// SimWindows counts lookahead windows; SimBusyWall sums every queue's
	// wall-clock execution time and SimCriticalWall each window's slowest
	// queue plus all root-event time — BusyWall/CriticalWall is the
	// speedup the partition plan would reach with enough cores.
	SimWorkers      int
	SimWindows      uint64
	SimBusyWall     time.Duration
	SimCriticalWall time.Duration
}

// Experiment is a built but not-yet-finished run: the deployed network, the
// chain nodes, the workload and the fault timeline, exposed in phases so a run
// can be checkpointed mid-flight and forked (see fork.go). Run composes the
// phases — Build, Start, RunUntil, Collect — exactly as a plain run does.
type Experiment struct {
	cfg        Config
	sched      *sim.Scheduler
	net        *simnet.Network
	monitor    *chain.Monitor
	rec        *metrics.Recorder
	validators []simnet.Handler
	bases      []*chain.BaseNode
	flows      []*client.FlowClient
	flowGens   []*workload.Flow
	readers    []*client.VerifiedReader
	observers  []*observer.Observer
	primary    *observer.Primary
	// compiled is the run's one fault timeline (empty when nothing is
	// injected); a forked continuation may be steered onto a sibling's.
	compiled *scenario.Compiled
	started  bool
	forkable *snapshot.Set
}

// Run executes a single experiment run and collects its measurements.
func Run(cfg Config) (*RunResult, error) {
	e, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	e.Start()
	e.RunUntil(e.cfg.Duration)
	return e.Collect(), nil
}

// Build materializes the experiment — scheduler, network, validators,
// observers, primary, clients, readers — without scheduling the workload or
// running anything. The construction order is fixed: it determines the
// scheduler's RNG/ticker registration order, which forked continuations rely
// on.
func Build(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	compiled, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	lay := cfg.layout()
	// Committee mode is a System-level switch: validators read it at
	// construction time, so it must be set before NewValidator runs.
	// Setting it unconditionally clears any size a previous run left on a
	// reused System value.
	if cs, ok := cfg.System.(committeeSystem); ok {
		cs.SetCommitteeSize(cfg.CommitteeSize)
	}

	sched := sim.New(cfg.Seed)
	net := simnet.New(sched, simnet.Config{Latency: cfg.Latency})
	rec := cfg.Metrics
	var tracers []simnet.Tracer
	if cfg.TraceWriter != nil {
		tracers = append(tracers, simnet.WriterTracer(cfg.TraceWriter))
	}
	if rec != nil {
		tracers = append(tracers, rec.Tracer())
	}
	switch len(tracers) {
	case 0:
	case 1:
		net.SetTracer(tracers[0])
	default:
		net.SetTracer(simnet.MultiTracer(tracers...))
	}
	monitor := chain.NewMonitor()
	if rec != nil {
		monitor.SetMetrics(rec)
	}

	// Validators.
	peers := make([]simnet.NodeID, cfg.Validators)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	// Workload layout: which clients and which (possibly folded) account
	// range each flow carries. Genesis funds exactly those accounts.
	spans := cfg.flowSpans()
	totalAccts := 0
	for _, sp := range spans {
		totalAccts += sp.accts
	}
	genesis := genesisAccounts(totalAccts)
	var validators []simnet.Handler
	var bases []*chain.BaseNode
	for _, id := range peers {
		h := cfg.System.NewValidator(id, peers, monitor, genesis)
		if b, ok := h.(interface{ Base() *chain.BaseNode }); ok {
			bases = append(bases, b.Base())
		}
		validators = append(validators, h)
		net.AddNode(id, h)
	}
	if !cfg.DisableConnLayer {
		net.ManageConns(peers, cfg.System.ConnParams())
	}

	// Structured gossip overlay: one immutable topology shared read-only by
	// every validator's Router. Attached before StartAll so the routers are
	// in place when the chains' Start hooks run; the routers survive node
	// restarts (only their volatile caches clear in Reset).
	var topo *overlay.Topology
	if cfg.Overlay.Enabled() {
		if len(bases) != len(validators) {
			return nil, fmt.Errorf("core: system %s does not expose its BaseNode; overlay routing unavailable", cfg.System.Name())
		}
		var err error
		topo, err = overlay.New(cfg.Overlay, cfg.Seed, peers)
		if err != nil {
			return nil, err
		}
		for _, b := range bases {
			b.SetRelay(overlay.NewRouter(topo, b.ID))
		}
	}

	// Observers and primary (Fig 2).
	mapping := make(map[simnet.NodeID]simnet.NodeID, cfg.Validators)
	observers := make([]*observer.Observer, 0, cfg.Validators)
	for i, id := range peers {
		obsID := simnet.NodeID(lay.observerBase + i)
		obs := observer.New(id, net)
		observers = append(observers, obs)
		net.AddNode(obsID, obs)
		mapping[id] = obsID
	}
	primary := observer.NewPrimary(compiled.Script, mapping)
	net.AddNode(simnet.NodeID(lay.primary), primary)

	// Clients: one endpoint per flow. Flow i keeps node id clientBase+i, and
	// its members send under the ids they hold as single-member flows
	// (VirtualBase), so the network draws do not depend on the partition.
	// Workload RNG streams are registered in deployment order, under the
	// name each mode's goldens were captured with.
	pool := make([]simnet.NodeID, cfg.clientFacing())
	for i := range pool {
		pool[i] = simnet.NodeID(i)
	}
	stream := "workload/flow/%d"
	if cfg.Flows == 0 {
		stream = "workload/%d"
	}
	flows := make([]*client.FlowClient, len(spans))
	flowGens := make([]*workload.Flow, len(spans))
	for i, sp := range spans {
		fl, err := workload.NewFlow(uint32(sp.start), sp.clients, cfg.AccountsPerClient,
			chain.Address(sp.acctBase), sp.accts, totalAccts,
			sched.RNG(fmt.Sprintf(stream, i)))
		if err != nil {
			return nil, err
		}
		flowGens[i] = fl
		flows[i] = client.NewFlow(client.FlowConfig{
			Endpoints:   pool,
			Start:       sp.start,
			Fanout:      cfg.Fanout,
			Rate:        cfg.RatePerClient,
			Stop:        cfg.Duration,
			Profile:     cfg.Profile,
			RetryAfter:  cfg.RetryAfter,
			MaxRetries:  cfg.MaxRetries,
			VirtualBase: simnet.NodeID(lay.clientBase + sp.start),
		}, fl)
		net.AddNode(simnet.NodeID(lay.clientBase+i), flows[i])
	}

	// Optional credence.js-style verified readers (§9): one per client
	// endpoint.
	var readers []*client.VerifiedReader
	if cfg.ReadRate > 0 {
		facing := cfg.clientFacing()
		fanout := cfg.System.Tolerance(cfg.Validators) + 1
		if fanout > facing {
			fanout = facing
		}
		all := make([]chain.Address, totalAccts)
		for i := range all {
			all[i] = chain.Address(i)
		}
		for i := 0; i < cfg.clientNodes(); i++ {
			eps := make([]simnet.NodeID, fanout)
			for j := range eps {
				eps[j] = simnet.NodeID((i + j) % facing)
			}
			r := client.NewVerifiedReader(client.ReaderConfig{
				Endpoints: eps,
				Accounts:  all,
				Rate:      cfg.ReadRate,
				Stop:      cfg.Duration,
			})
			readers = append(readers, r)
			net.AddNode(simnet.NodeID(lay.readerBase+i), r)
		}
	}

	// Parallel kernel: partition the deployment and switch the scheduler,
	// network and monitor over together. Enabled last so every endpoint is
	// registered; runs whose latency model states no positive lower bound
	// stay sequential (the conservative kernel needs a lookahead).
	if cfg.SimWorkers > 0 {
		if topo != nil {
			if d := cfg.overlayLookahead(net, topo, lay, len(readers)); d > 0 {
				net.SetLookahead(d)
			}
		}
		if la := net.Lookahead(); la > 0 {
			plan := parsim.New(cfg.SimWorkers)
			vals := make([]int, cfg.Validators)
			for i := range vals {
				vals[i] = i
			}
			plan.Spread(vals)
			cls := make([]int, cfg.clientNodes())
			for i := range cls {
				cls[i] = lay.clientBase + i
			}
			plan.Spread(cls)
			if len(readers) > 0 {
				rds := make([]int, len(readers))
				for i := range rds {
					rds[i] = lay.readerBase + i
				}
				plan.Spread(rds)
			}
			// Observers and the primary go on the root queue: they reach
			// across the whole deployment and must only run at window
			// barriers. Pinning them explicitly also sizes the lane table
			// to cover every deployed id (the primary's is the largest).
			obs := make([]int, 0, cfg.Validators+1)
			for i := 0; i < cfg.Validators; i++ {
				obs = append(obs, lay.observerBase+i)
			}
			obs = append(obs, lay.primary)
			plan.Root(obs)
			table := plan.Table()
			sched.EnableParallel(table, cfg.SimWorkers, la)
			net.EnableParallel(table, cfg.SimWorkers)
			monitor.EnableParallel(sched, table, cfg.SimWorkers)
		}
	}

	return &Experiment{
		cfg:        cfg,
		sched:      sched,
		net:        net,
		monitor:    monitor,
		rec:        rec,
		validators: validators,
		bases:      bases,
		flows:      flows,
		flowGens:   flowGens,
		readers:    readers,
		observers:  observers,
		primary:    primary,
		compiled:   compiled,
	}, nil
}

// Start annotates the recorder, schedules the periodic gauge sampler and
// starts every network handler. It must be called exactly once, before the
// first RunUntil.
func (e *Experiment) Start() {
	if e.started {
		panic("core: Experiment.Start called twice")
	}
	e.started = true
	if rec := e.rec; rec != nil {
		info, evs := e.cfg.runAnnotations(e.compiled)
		rec.SetRun(info)
		for _, ev := range evs {
			rec.AddEvent(ev)
		}
		// Periodic gauge sampling: chain-side backlog (mempool depth),
		// client-side backlog (in-flight submissions) and chain height.
		// The sampler only reads state — no messages, no RNG — so the
		// simulation unfolds identically with or without it.
		for t := time.Duration(0); t < e.cfg.Duration; t += rec.Interval() {
			e.sched.At(t, func() {
				now := e.sched.Now()
				depth := 0
				for _, b := range e.bases {
					depth += b.Pool.Len()
				}
				pending := 0
				for _, fl := range e.flows {
					pending += fl.PendingCount()
				}
				rec.Gauge(now, "mempool_depth", float64(depth))
				rec.Gauge(now, "client_pending", float64(pending))
				rec.Gauge(now, "chain_height", float64(e.monitor.MaxHeight()))
				if e.cfg.Overlay.Enabled() {
					var ost overlay.Stats
					for _, b := range e.bases {
						if r := b.Relay(); r != nil {
							ost.Add(r.Stats())
						}
					}
					rec.Gauge(now, "overlay_relayed", float64(ost.Relayed))
					rec.Gauge(now, "overlay_duplicates", float64(ost.Duplicates))
					rec.Gauge(now, "overlay_stall_skips", float64(ost.StallSkips))
				}
			})
		}
	}
	e.net.StartAll()
}

// RunUntil advances the simulation to the given virtual instant. It may be
// called repeatedly with increasing deadlines; a forked continuation resumes
// from the checkpoint instant with another RunUntil.
func (e *Experiment) RunUntil(deadline time.Duration) {
	e.sched.RunUntil(deadline)
}

// Now returns the current virtual time.
func (e *Experiment) Now() time.Duration { return e.sched.Now() }

// Config returns the experiment's materialized (default-applied) config.
func (e *Experiment) Config() Config { return e.cfg }

// Steer points a forked continuation at a sibling's timeline (Config.Timeline
// of the sibling config): the primary's actions not yet executed take the
// sibling's node sets and magnitudes, and Collect and the recorder's head
// annotations report the sibling's targets, exactly as a from-scratch run of
// it would. The sibling must share the timeline's shape — same action count,
// same instants — so the annotations are replaced position by position.
func (e *Experiment) Steer(compiled *scenario.Compiled) {
	e.primary.SetScript(compiled.Script)
	e.compiled = compiled
	if e.rec != nil {
		info, evs := e.cfg.runAnnotations(compiled)
		e.rec.SetRun(info)
		e.rec.ReplaceHeadEvents(len(evs), evs)
	}
}

// Collect assembles the run's measurements. It only reads state, so it can
// be called after every forked continuation.
func (e *Experiment) Collect() *RunResult {
	cfg := e.cfg
	res := &RunResult{
		IntegrityErrors: e.monitor.IntegrityErrors(),
		UniqueCommits:   e.monitor.UniqueCommits(),
		LastCommitAt:    e.monitor.LastCommitAt(),
		MaxHeight:       e.monitor.MaxHeight(),
		FaultyNodes:     e.compiled.Affected,
		Events:          e.sched.Fired(),
		NetStats:        e.net.Stats(),
	}
	if e.sched.Parallel() {
		ps := e.sched.ParallelStats()
		res.SimWorkers = e.sched.Workers()
		res.SimWindows = ps.Windows
		res.SimBusyWall = ps.BusyWall
		res.SimCriticalWall = ps.CriticalWall
	}
	times := make([]time.Duration, 0, e.monitor.UniqueCommits())
	for _, ev := range e.monitor.Commits() {
		times = append(times, ev.Committed)
	}
	res.Throughput = stats.Throughput(times, cfg.Bucket, cfg.Duration)
	for _, fl := range e.flows {
		res.Latencies = append(res.Latencies, fl.Latencies()...)
		res.Submitted += fl.Submitted()
		res.Pending += fl.PendingCount()
	}
	for _, r := range e.readers {
		res.ReadLatencies = append(res.ReadLatencies, r.Latencies()...)
		res.Reads += r.Reads()
		res.ReadMismatches += r.Mismatches()
		res.ReadDivergences += r.Divergences()
	}
	for _, b := range e.bases {
		if r := b.Relay(); r != nil {
			res.Overlay.Add(r.Stats())
		}
	}
	res.LivenessLost = res.LastCommitAt < cfg.Duration-cfg.LivenessGrace
	return res
}

// overlayLookahead derives the tightest safe parallel horizon for an
// overlay-confined deployment: the minimum of the latency model's per-pair
// lower bounds over exactly the directed links that can carry a message —
// overlay edges between validators, client/flow and reader traffic to and
// from the validators (flow members send under virtual ids in the modeled
// clients' range, which this covers), and the control links between the
// primary and its observers. Returns 0 when the model states no positive
// per-pair bounds, leaving the model-wide Lookahead in force.
func (c Config) overlayLookahead(net *simnet.Network, topo *overlay.Topology, lay idLayout, readers int) time.Duration {
	best := time.Duration(0)
	usable := true
	consider := func(a, b simnet.NodeID) {
		if !usable {
			return
		}
		d, ok := net.PairLowerBound(a, b)
		if !ok || d <= 0 {
			usable = false
			return
		}
		if best == 0 || d < best {
			best = d
		}
	}
	pair := func(a, b simnet.NodeID) { consider(a, b); consider(b, a) }
	topo.Edges(pair)
	for i := 0; i < c.Clients && usable; i++ {
		for v := 0; v < c.Validators; v++ {
			pair(simnet.NodeID(lay.clientBase+i), simnet.NodeID(v))
		}
	}
	for i := 0; i < readers && usable; i++ {
		for v := 0; v < c.Validators; v++ {
			pair(simnet.NodeID(lay.readerBase+i), simnet.NodeID(v))
		}
	}
	for i := 0; i < c.Validators; i++ {
		pair(simnet.NodeID(lay.primary), simnet.NodeID(lay.observerBase+i))
	}
	if !usable {
		return 0
	}
	return best
}

// Timeline lowers the config's adversarial environment onto the deployment:
// the one compiled fault timeline every run carries, empty when nothing is
// injected (fault-free and secure-client runs). A scenario compiles as it is;
// a node fault first lowers to the one-action scenario it is — crash; crash
// and restart; partition and heal; slow and clear. Build keeps the result, and
// adaptive campaigns call it to steer a forked continuation onto a sibling
// (Experiment.Steer). Random node selectors draw from a stream derived purely
// from (cfg.Seed, action index), so every compile of one config resolves the
// same nodes and none perturbs the simulation's own streams.
func (c Config) Timeline() (*scenario.Compiled, error) {
	c = c.withDefaults()
	sc := c.Scenario
	var targets []simnet.NodeID
	if sc == nil {
		var err error
		if sc, targets, err = c.lowerFault(); err != nil {
			return nil, err
		}
		if sc == nil {
			return &scenario.Compiled{}, nil
		}
	}
	env := scenario.Env{
		Validators: c.Validators,
		Clients:    c.clientFacing(),
		// The derivation is pure in (seed, name): a throwaway scheduler per
		// draw resolves the same stream, and a lowered plan never draws.
		RNG: func(name string) *rand.Rand { return sim.New(c.Seed).RNG("scenario/" + name) },
	}
	if c.Scenario != nil && c.Overlay.Enabled() {
		// Eclipse actions (which only a scenario holds) target each victim's
		// overlay neighborhood. The topology is a pure function of (overlay
		// config, seed, ids), so rebuilding it here resolves the same
		// adjacency Build wires into the routers.
		peers := make([]simnet.NodeID, c.Validators)
		for i := range peers {
			peers[i] = simnet.NodeID(i)
		}
		topo, err := overlay.New(c.Overlay, c.Seed, peers)
		if err != nil {
			return nil, err
		}
		env.Neighbors = topo.Neighbors
	}
	compiled, err := sc.Compile(env)
	if err == nil && c.Scenario == nil {
		// Compile sorts the union of a scenario's targets; a plan reports
		// its targets in the order they are signalled.
		compiled.Affected = targets
	}
	return compiled, err
}

// lowerFault builds the one-action scenario a node fault is, over the f
// highest-numbered validators, none of which serves a client (the paper's
// "faulty nodes never receive transactions they would otherwise lose"). The
// targets are listed n−1 downward: the primary draws one latency per signal,
// so their order is part of what a seed reproduces. An explicit Count wins
// over the paper's f = t for crashes and f = t+1 for the healing kinds. A
// config that injects no node fault lowers to nil.
func (c Config) lowerFault() (*scenario.Scenario, []simnet.NodeID, error) {
	act := scenario.Action{At: c.Fault.InjectAt, Until: c.Fault.RecoverAt}
	f := c.System.Tolerance(c.Validators) + 1
	switch c.Fault.Kind {
	case FaultCrash:
		act.Op, act.Until = scenario.OpCrash, 0
		f--
	case FaultTransient:
		act.Op = scenario.OpCrash
	case FaultPartition:
		act.Op = scenario.OpPartition
	case FaultSlow:
		act.Op, act.Delay = scenario.OpSlow, c.Fault.SlowBy
	default:
		return nil, nil, nil
	}
	if c.Fault.Count > 0 {
		f = c.Fault.Count
	}
	if pool := c.Validators - c.clientFacing(); f > pool {
		return nil, nil, fmt.Errorf("core: %d faulty nodes but only %d validators have no client attached", f, pool)
	}
	var targets []simnet.NodeID
	for i := 0; i < f; i++ {
		targets = append(targets, simnet.NodeID(c.Validators-1-i))
	}
	act.Nodes = scenario.Nodes(targets)
	return &scenario.Scenario{Name: c.Fault.Kind.String(), Actions: []scenario.Action{act}}, targets, nil
}

// runAnnotations derives the recorder's run identity and head annotation
// events from the run's timeline: one phase annotation per compiled step,
// then the inject and last-revert instants. The derivation is pure, so Steer
// re-stamps the recorder for a sibling's timeline.
func (c Config) runAnnotations(compiled *scenario.Compiled) (metrics.RunInfo, []metrics.Event) {
	env := c.Fault.Kind.String()
	inject := fmt.Sprintf("%s f=%d", env, len(compiled.Affected))
	revert := inject
	if c.Scenario != nil {
		env = "scenario:" + c.Scenario.Name
		inject = fmt.Sprintf("scenario %s f=%d", c.Scenario.Name, len(compiled.Affected))
		revert = fmt.Sprintf("scenario %s last revert", c.Scenario.Name)
	}
	info := metrics.RunInfo{
		System:     c.System.Name(),
		Seed:       c.Seed,
		Fault:      env,
		Validators: c.Validators,
		Clients:    c.Clients,
		Duration:   c.Duration,
		InjectAt:   compiled.FirstDisrupt,
		RecoverAt:  compiled.LastRevert,
	}
	evs := make([]metrics.Event, 0, len(compiled.Phases)+2)
	mark := func(at time.Duration, kind metrics.EventKind, detail string) {
		evs = append(evs, metrics.Event{At: at, Kind: kind, Node: -1, Round: -1, Leader: -1, Detail: detail})
	}
	for _, ph := range compiled.Phases {
		mark(ph.At, metrics.EventPhase, ph.Label)
	}
	if compiled.FirstDisrupt > 0 {
		mark(compiled.FirstDisrupt, metrics.EventFaultInject, inject)
	}
	if compiled.LastRevert > 0 {
		mark(compiled.LastRevert, metrics.EventFaultRecover, revert)
	}
	return info, evs
}

// genesisAccounts funds every workload account — addresses [0, total), the
// flows' folded layout, so genesis and every validator's ledger stay bounded
// regardless of modeled clients — generously enough that transfers never fail
// for lack of balance.
func genesisAccounts(total int) []chain.GenesisAccount {
	out := make([]chain.GenesisAccount, total)
	for i := range out {
		out[i] = chain.GenesisAccount{Addr: chain.Address(i), Balance: 1 << 40}
	}
	return out
}

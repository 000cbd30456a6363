package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/simnet"
)

// stubSystem is a minimal chain for exercising the harness: node 0 seals its
// pool into a block twice per second and broadcasts it; every node forwards
// client transactions to node 0. With FragileQuorum set, sealing stops as
// soon as any validator is unreachable — a maximally fragile chain.
type stubSystem struct {
	fragile bool
	name    string
	// onSubmit, when set, sees every client submission a validator receives.
	onSubmit func(validator simnet.NodeID, tx chain.Tx)
}

func (s *stubSystem) Name() string {
	if s.name != "" {
		return s.name
	}
	return "Stub"
}
func (s *stubSystem) Tolerance(n int) int           { return chain.ToleranceThird(n) }
func (s *stubSystem) ConnParams() simnet.ConnParams { return simnet.ConnParams{} }

func (s *stubSystem) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis []chain.GenesisAccount) simnet.Handler {
	v := &stubValidator{
		base:     chain.NewBaseNode(id, peers, mon, chain.BaseConfig{}),
		fragile:  s.fragile,
		onSubmit: s.onSubmit,
	}
	for _, g := range genesis {
		v.base.Ledger.Mint(g.Addr, g.Balance)
	}
	return v
}

type stubValidator struct {
	base     *chain.BaseNode
	fragile  bool
	onSubmit func(validator simnet.NodeID, tx chain.Tx)
	ticker   interface{ Stop() }
	alive    map[simnet.NodeID]bool
}

type stubForward struct{ Tx chain.Tx }
type stubBlock struct{ Block chain.Block }
type stubPing struct{}
type stubPong struct{ From simnet.NodeID }

func (v *stubValidator) Start(ctx *simnet.Context) {
	v.base.Reset(ctx)
	v.base.OnLocalSubmit = func(tx chain.Tx) {
		if v.onSubmit != nil {
			v.onSubmit(v.base.ID, tx)
		}
		if v.base.ID != v.base.Peers[0] {
			ctx.Send(v.base.Peers[0], stubForward{Tx: tx})
			v.base.Subscribe(tx.ID, v.base.ID)
		}
	}
	if v.base.ID == v.base.Peers[0] {
		alive := make(map[simnet.NodeID]bool)
		v.ticker = ctx.Every(500*time.Millisecond, func() {
			if v.fragile {
				// Probe everyone; seal only if all answered last time.
				ok := true
				for _, p := range v.base.Peers[1:] {
					if !alive[p] {
						ok = false
					}
					alive[p] = false
				}
				ctx.Broadcast(v.base.Peers, stubPing{})
				if !ok && ctx.Now() > time.Second {
					return
				}
			}
			txs := v.base.Pool.Pop(0)
			b := chain.Block{
				Height:    v.base.ChainTip(),
				Parent:    v.base.TipHash(),
				Txs:       txs,
				DecidedAt: ctx.Now(),
			}
			v.base.SubmitBlock(b)
			ctx.Broadcast(v.base.Peers, stubBlock{Block: b})
		})
		v.alive = alive
	} else if v.base.Ledger.Height() > 0 {
		v.base.StartCatchUp()
	}
}

func (v *stubValidator) Stop() {
	if v.ticker != nil {
		v.ticker.Stop()
	}
}

func (v *stubValidator) Deliver(from simnet.NodeID, payload any) {
	if v.base.HandleClient(from, payload) || v.base.HandleSync(from, payload) {
		return
	}
	switch msg := payload.(type) {
	case stubForward:
		v.base.Pool.Add(msg.Tx)
	case stubBlock:
		v.base.SubmitBlock(msg.Block)
	case stubPing:
		v.base.Ctx().Send(from, stubPong{From: v.base.ID})
	case stubPong:
		if v.alive != nil {
			v.alive[msg.From] = true
		}
	}
}

func TestRunDefaultsAndBaseline(t *testing.T) {
	res, err := Run(Config{System: &stubSystem{}, Seed: 1, Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// 5 clients x 40 tx/s x 30 s = ~6000.
	if res.Submitted < 5900 || res.Submitted > 6005 {
		t.Fatalf("submitted = %d", res.Submitted)
	}
	if res.UniqueCommits < res.Submitted*95/100 {
		t.Fatalf("commits = %d of %d", res.UniqueCommits, res.Submitted)
	}
	if res.LivenessLost {
		t.Fatal("stub baseline lost liveness")
	}
	if len(res.FaultyNodes) != 0 {
		t.Fatalf("baseline has faulty nodes: %v", res.FaultyNodes)
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil system accepted")
	}
	if _, err := Run(Config{System: &stubSystem{}, Clients: 11, Validators: 10}); err == nil {
		t.Fatal("more clients than validators accepted")
	}
	if _, err := Run(Config{System: &stubSystem{}, Fanout: 6}); err == nil {
		t.Fatal("fanout beyond client-facing validators accepted")
	}
	if _, err := Run(Config{
		System: &stubSystem{},
		Fault:  FaultPlan{Kind: FaultCrash, Count: 6},
	}); err == nil {
		t.Fatal("fault count overlapping client-facing validators accepted")
	}
}

// TestValidateRejectsNegativeAndNonFinite: a negative or non-finite size,
// rate or horizon is refused by Validate and by Run with an error naming the
// field and the value — it used to reach the constructors' panics, or run
// and score infinity. Zero still means "use the default".
func TestValidateRejectsNegativeAndNonFinite(t *testing.T) {
	cases := []struct {
		field, value string
		set          func(*Config)
	}{
		{"Validators", "-3", func(c *Config) { c.Validators = -3 }},
		{"Clients", "-1", func(c *Config) { c.Clients = -1 }},
		{"RatePerClient", "-2", func(c *Config) { c.RatePerClient = -2 }},
		{"RatePerClient", "NaN", func(c *Config) { c.RatePerClient = math.NaN() }},
		{"RatePerClient", "+Inf", func(c *Config) { c.RatePerClient = math.Inf(1) }},
		{"AccountsPerClient", "-1", func(c *Config) { c.AccountsPerClient = -1 }},
		{"Duration", "-5s", func(c *Config) { c.Duration = -5 * time.Second }},
		{"Fanout", "-1", func(c *Config) { c.Fanout = -1 }},
		{"RetryAfter", "-1s", func(c *Config) { c.RetryAfter = -time.Second }},
		{"MaxRetries", "-1", func(c *Config) { c.MaxRetries = -1 }},
		{"ReadRate", "-0.5", func(c *Config) { c.ReadRate = -0.5 }},
		{"ReadRate", "NaN", func(c *Config) { c.ReadRate = math.NaN() }},
		{"Fault.InjectAt", "-5s", func(c *Config) { c.Fault.InjectAt = -5 * time.Second }},
		{"Fault.Count", "-3", func(c *Config) { c.Fault = FaultPlan{Kind: FaultSlow, Count: -3} }},
		{"Fault.SlowBy", "-5s", func(c *Config) { c.Fault = FaultPlan{Kind: FaultSlow, SlowBy: -5 * time.Second} }},
		{"Fault.RecoverAt", "5s", func(c *Config) { c.Fault = invertedWindow(FaultTransient, 5*time.Second) }},
		{"Fault.RecoverAt", "6s", func(c *Config) { c.Fault = invertedWindow(FaultPartition, 6*time.Second) }},
		{"Fault.RecoverAt", "7s", func(c *Config) { c.Fault = invertedWindow(FaultSlow, 7*time.Second) }},
	}
	for _, tc := range cases {
		t.Run(tc.field+"="+tc.value, func(t *testing.T) {
			cfg := Config{System: &stubSystem{}}
			tc.set(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted it")
			}
			if !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), tc.value) {
				t.Fatalf("error %q does not name %s and %s", err, tc.field, tc.value)
			}
			if _, runErr := Run(cfg); runErr == nil || runErr.Error() != err.Error() {
				t.Fatalf("Run error = %v, want %v", runErr, err)
			}
		})
	}
	if err := (Config{System: &stubSystem{}}).Validate(); err != nil {
		t.Fatalf("all-zero (all-default) config refused: %v", err)
	}
	// A crash never heals, so its plan's RecoverAt is not read; a healing
	// fault with a zero-length outage is what campaigns sweep from.
	if err := (Config{System: &stubSystem{}, Fault: invertedWindow(FaultCrash, 5*time.Second)}).Validate(); err != nil {
		t.Fatalf("crash with RecoverAt < InjectAt refused: %v", err)
	}
	zeroOutage := FaultPlan{Kind: FaultTransient, InjectAt: 15 * time.Second, RecoverAt: 15 * time.Second}
	if err := (Config{System: &stubSystem{}, Fault: zeroOutage}).Validate(); err != nil {
		t.Fatalf("RecoverAt == InjectAt refused: %v", err)
	}
}

// invertedWindow is a plan of the given kind that starts at 15 s and heals
// before that, at recoverAt.
func invertedWindow(kind FaultKind, recoverAt time.Duration) FaultPlan {
	return FaultPlan{Kind: kind, InjectAt: 15 * time.Second, RecoverAt: recoverAt}
}

func TestFaultyNodesAvoidClientFacingValidators(t *testing.T) {
	cfg := Config{System: &stubSystem{}, Fault: FaultPlan{Kind: FaultTransient}}.withDefaults()
	compiled, err := cfg.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	// t = 3 for the stub => f = t+1 = 4, drawn from the top ids downward.
	if want := []simnet.NodeID{9, 8, 7, 6}; !reflect.DeepEqual(compiled.Affected, want) {
		t.Fatalf("faulty = %v, want %v", compiled.Affected, want)
	}
	for _, id := range compiled.Affected {
		if int(id) < cfg.Clients {
			t.Fatalf("faulty node %v serves a client", id)
		}
	}
}

// TestClientEndpointsFanOutOverClientFacingNodes: in the paper's deployment
// (Flows zero) client i submits to validators i, i+1, ... i+Fanout-1 modulo
// the client-facing ones, and the validators reserved for faults see no
// client traffic.
func TestClientEndpointsFanOutOverClientFacingNodes(t *testing.T) {
	reached := make(map[simnet.NodeID]map[uint32]bool) // validator -> clients that submitted to it
	sys := &stubSystem{onSubmit: func(v simnet.NodeID, tx chain.Tx) {
		if reached[v] == nil {
			reached[v] = make(map[uint32]bool)
		}
		reached[v][tx.ID.Client()] = true
	}}
	if _, err := Run(Config{System: sys, Seed: 1, Fanout: 4, Duration: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// 5 clients over 5 client-facing validators, fanout 4: client 3 reaches
	// validators 3 4 0 1, and validator v hears from every client except the
	// one whose window starts just past it.
	for v := simnet.NodeID(0); v < 10; v++ {
		for c := uint32(0); c < 5; c++ {
			want := v < 5 && (int(v)-int(c)+5)%5 < 4
			if reached[v][c] != want {
				t.Fatalf("client %d reached validator %d = %v, want %v (all: %v)", c, v, reached[v][c], want, reached)
			}
		}
	}
}

func TestCrashOnFragileChainLosesLiveness(t *testing.T) {
	res, err := Run(Config{
		System:   &stubSystem{fragile: true},
		Seed:     1,
		Duration: 60 * time.Second,
		Fault:    FaultPlan{Kind: FaultCrash, InjectAt: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LivenessLost {
		t.Fatalf("fragile chain survived crash; last commit %v", res.LastCommitAt)
	}
	if res.LastCommitAt > 25*time.Second {
		t.Fatalf("commits continued past the crash: %v", res.LastCommitAt)
	}
}

func TestTransientOnStubRecovers(t *testing.T) {
	res, err := Run(Config{
		System:   &stubSystem{fragile: true},
		Seed:     1,
		Duration: 90 * time.Second,
		Fault:    FaultPlan{Kind: FaultTransient, InjectAt: 20 * time.Second, RecoverAt: 40 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LivenessLost {
		t.Fatalf("stub did not recover; last commit %v", res.LastCommitAt)
	}
	during := res.Throughput.MeanRate(25*time.Second, 40*time.Second)
	if during > 10 {
		t.Fatalf("fragile stub committed %v/s during outage", during)
	}
}

func TestCompareComputesScoreAndRecovery(t *testing.T) {
	cmp, err := Compare(Config{
		System:   &stubSystem{fragile: true},
		Seed:     1,
		Duration: 90 * time.Second,
		Fault:    FaultPlan{Kind: FaultTransient, InjectAt: 20 * time.Second, RecoverAt: 40 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Score.Infinite {
		t.Fatal("recovering stub scored infinite")
	}
	if cmp.Score.Value <= 0 {
		t.Fatal("outage left no trace in the score")
	}
	if !cmp.Recovered {
		t.Fatal("recovery not detected")
	}
	if cmp.RecoveryTime > 20*time.Second {
		t.Fatalf("recovery time = %v", cmp.RecoveryTime)
	}
	if !strings.Contains(cmp.String(), "transient") {
		t.Fatalf("String() = %q", cmp.String())
	}
}

func TestCompareInfiniteOnLivenessLoss(t *testing.T) {
	cmp, err := Compare(Config{
		System:   &stubSystem{fragile: true},
		Seed:     1,
		Duration: 60 * time.Second,
		Fault:    FaultPlan{Kind: FaultCrash, InjectAt: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Score.Infinite {
		t.Fatal("liveness loss not reflected as infinite score")
	}
	if cmp.Score.String() != "inf" {
		t.Fatalf("score string = %q", cmp.Score.String())
	}
}

func TestSecureClientFanoutAppliedInAlteredRun(t *testing.T) {
	cmp, err := Compare(Config{
		System:   &stubSystem{},
		Seed:     1,
		Duration: 30 * time.Second,
		Fault:    FaultPlan{Kind: FaultSecureClient},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stub tolerance is 3 -> fanout 4: the altered run must complete all
	// transactions through 4 endpoints (completion needs all of them).
	if cmp.Altered.Submitted == 0 || cmp.Altered.Pending > cmp.Altered.Submitted/10 {
		t.Fatalf("secure run: %d submitted, %d pending", cmp.Altered.Submitted, cmp.Altered.Pending)
	}
}

func TestFaultKindString(t *testing.T) {
	cases := map[FaultKind]string{
		FaultNone:         "none",
		FaultCrash:        "crash",
		FaultTransient:    "transient",
		FaultPartition:    "partition",
		FaultSecureClient: "secure-client",
		FaultKind(42):     "FaultKind(42)",
	}
	for kind, want := range cases {
		if kind.String() != want {
			t.Fatalf("String(%d) = %q", int(kind), kind.String())
		}
		// Every named kind round-trips through ParseFaultKind.
		if kind == FaultKind(42) {
			continue
		}
		back, err := ParseFaultKind(want)
		if err != nil || back != kind {
			t.Fatalf("ParseFaultKind(%q) = %v, %v; want %v", want, back, err, kind)
		}
	}
	// FaultSlow is spelled "slow" and round-trips too.
	if FaultSlow.String() != "slow" {
		t.Fatalf("FaultSlow = %q", FaultSlow)
	}
	if back, err := ParseFaultKind("slow"); err != nil || back != FaultSlow {
		t.Fatalf("ParseFaultKind(slow) = %v, %v", back, err)
	}
	// An unknown kind's error lists the valid names and points composite
	// faults at scenario specs.
	_, err := ParseFaultKind("cascade")
	if err == nil {
		t.Fatal("unknown fault kind accepted")
	}
	for _, part := range []string{"crash", "scenario spec"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q does not mention %q", err, part)
		}
	}
}

func TestPartitionScriptSeparatesGroups(t *testing.T) {
	cfg := Config{System: &stubSystem{}, Fault: FaultPlan{Kind: FaultPartition}}.withDefaults()
	compiled, err := cfg.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	faulty, script := compiled.Affected, compiled.Script
	if len(script) != 2 {
		t.Fatalf("script = %d actions", len(script))
	}
	if len(script[0].PartitionA) != len(faulty) {
		t.Fatal("partition A mismatch")
	}
	if len(script[0].PartitionB) != cfg.Validators-len(faulty) {
		t.Fatal("partition B mismatch")
	}
	if len(script[1].Heal) != len(faulty) {
		t.Fatal("heal action mismatch")
	}
}

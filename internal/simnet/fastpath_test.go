package simnet

// Tests for the constant-time send-path structures: the blocked-pair set
// maintained by Partition/Heal, the Context.RNG seed memoization, and the
// dense node and extra-delay tables (the flight pool is in flight_test.go).

import (
	"testing"
	"time"

	"stabl/internal/sim"
)

// TestBlockedPairSetTracksRules checks overlapping rules count correctly:
// a pair stays blocked until every rule separating it is healed.
func TestBlockedPairSetTracksRules(t *testing.T) {
	_, net, _ := newTestNet(t, 4, FixedLatency(time.Millisecond))
	r1 := net.Partition([]NodeID{0, 1}, []NodeID{2, 3})
	r2 := net.Partition([]NodeID{0}, []NodeID{2})
	if !net.Blocked(0, 2) || !net.Blocked(2, 0) {
		t.Fatal("0<->2 should be blocked by both rules")
	}
	net.Heal(r1)
	if !net.Blocked(0, 2) {
		t.Fatal("0<->2 still separated by rule 2")
	}
	if net.Blocked(1, 3) {
		t.Fatal("1<->3 should be healed with rule 1")
	}
	net.Heal(r2)
	if net.Blocked(0, 2) {
		t.Fatal("all rules healed, pair still blocked")
	}
	if len(net.blockedPairs) != 0 {
		t.Fatalf("blockedPairs leaked %d entries after full heal", len(net.blockedPairs))
	}
}

// TestHealUnknownRuleIsNoop guards the Heal bookkeeping against double-heal.
func TestHealUnknownRuleIsNoop(t *testing.T) {
	_, net, _ := newTestNet(t, 2, FixedLatency(time.Millisecond))
	r := net.Partition([]NodeID{0}, []NodeID{1})
	net.Heal(r)
	net.Heal(r)
	net.Heal(999)
	if net.Blocked(0, 1) {
		t.Fatal("pair blocked after heal")
	}
}

// TestContextRNGMemoizationStable is the satellite requirement: memoizing
// the derived seed must not change stream contents, and every call —
// including after a restart, when handlers re-derive their streams — must
// return the same fresh stream a cold derivation would.
func TestContextRNGMemoizationStable(t *testing.T) {
	sched, net, hs := newTestNet(t, 2, FixedLatency(time.Millisecond))
	_ = sched
	net.StartAll()
	ctx := hs[0].ctx

	cold := sim.New(net.Scheduler().Seed()).RNG("node/0/vote")
	want := make([]int64, 16)
	for i := range want {
		want[i] = cold.Int63()
	}

	check := func(label string) {
		t.Helper()
		r := ctx.RNG("vote")
		for i, w := range want {
			if got := r.Int63(); got != w {
				t.Fatalf("%s: stream[%d] = %d, cold derivation says %d", label, i, got, w)
			}
		}
	}
	check("first derivation")
	check("memoized derivation")
	net.Halt(0)
	net.Restart(0)
	check("post-restart derivation")
}

// TestDenseNodeTableSparseIDs checks the dense table copes with the id gap
// between validators and the experiment primary (id 2000 in core).
func TestDenseNodeTableSparseIDs(t *testing.T) {
	sched := sim.New(1)
	net := New(sched, Config{Latency: FixedLatency(time.Millisecond)})
	h0, h1 := &echoHandler{}, &echoHandler{}
	net.AddNode(2000, h1)
	net.AddNode(0, h0)
	net.StartAll()
	if !net.Node(2000) || !net.Node(0) || net.Node(1) || net.Node(-1) || net.Node(5000) {
		t.Fatal("Node membership wrong on sparse table")
	}
	h0.ctx.Send(2000, "ping")
	sched.RunUntil(time.Second)
	if len(h1.received) != 1 {
		t.Fatalf("sparse-id delivery failed: got %d messages", len(h1.received))
	}
	ids := net.sortedIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2000 {
		t.Fatalf("sortedIDs = %v, want [0 2000]", ids)
	}
}

// TestNegativeNodeIDPanics pins the dense-table precondition.
func TestNegativeNodeIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative node id")
		}
	}()
	net := New(sim.New(1), Config{})
	net.AddNode(-1, &echoHandler{})
}

// TestSetExtraDelayCounter checks the non-zero counter that gates the
// extra-delay addition on the send path.
func TestSetExtraDelayCounter(t *testing.T) {
	_, net, _ := newTestNet(t, 3, FixedLatency(time.Millisecond))
	net.SetExtraDelay(0, time.Second)
	net.SetExtraDelay(1, time.Second)
	if net.extraDelayed != 2 {
		t.Fatalf("extraDelayed = %d, want 2", net.extraDelayed)
	}
	net.SetExtraDelay(0, 0)
	net.SetExtraDelay(0, 0) // clearing twice must not underflow
	if net.extraDelayed != 1 {
		t.Fatalf("extraDelayed = %d after clears, want 1", net.extraDelayed)
	}
	if net.ExtraDelay(1) != time.Second || net.ExtraDelay(0) != 0 {
		t.Fatal("ExtraDelay values wrong")
	}
}

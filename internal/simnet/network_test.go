package simnet

import (
	"reflect"
	"testing"
	"time"

	"stabl/internal/sim"
)

// echoHandler records everything it receives and can reply.
type echoHandler struct {
	ctx      *Context
	starts   int
	stops    int
	received []any
	froms    []NodeID
	onStart  func(*Context)
}

func (h *echoHandler) Start(ctx *Context) {
	h.ctx = ctx
	h.starts++
	if h.onStart != nil {
		h.onStart(ctx)
	}
}

func (h *echoHandler) Deliver(from NodeID, payload any) {
	h.received = append(h.received, payload)
	h.froms = append(h.froms, from)
}

func (h *echoHandler) Stop() { h.stops++ }

func newTestNet(t *testing.T, n int, lat LatencyModel) (*sim.Scheduler, *Network, []*echoHandler) {
	t.Helper()
	sched := sim.New(7)
	net := New(sched, Config{Latency: lat})
	hs := make([]*echoHandler, n)
	for i := 0; i < n; i++ {
		hs[i] = &echoHandler{}
		net.AddNode(NodeID(i), hs[i])
	}
	return sched, net, hs
}

func TestSendDeliversWithLatency(t *testing.T) {
	sched, net, hs := newTestNet(t, 2, FixedLatency(10*time.Millisecond))
	net.StartAll()
	hs[0].ctx.Send(1, "hello")
	sched.RunUntil(9 * time.Millisecond)
	if len(hs[1].received) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	sched.RunUntil(10 * time.Millisecond)
	if len(hs[1].received) != 1 || hs[1].received[0] != "hello" {
		t.Fatalf("received = %v", hs[1].received)
	}
	if hs[1].froms[0] != 0 {
		t.Fatalf("from = %v, want 0", hs[1].froms[0])
	}
}

func TestBroadcastExcludesSelf(t *testing.T) {
	sched, net, hs := newTestNet(t, 3, FixedLatency(time.Millisecond))
	net.StartAll()
	peers := []NodeID{0, 1, 2}
	hs[0].ctx.Broadcast(peers, "x")
	sched.RunUntil(time.Second)
	if len(hs[0].received) != 0 {
		t.Fatal("broadcast delivered to self")
	}
	if len(hs[1].received) != 1 || len(hs[2].received) != 1 {
		t.Fatal("broadcast missed a peer")
	}
}

func TestHaltDropsDeliveryAndTimers(t *testing.T) {
	sched, net, hs := newTestNet(t, 2, FixedLatency(10*time.Millisecond))
	net.StartAll()
	timerFired := false
	hs[1].ctx.After(20*time.Millisecond, func() { timerFired = true })
	hs[0].ctx.Send(1, "in-flight")
	sched.RunUntil(5 * time.Millisecond)
	net.Halt(1)
	if hs[1].stops != 1 {
		t.Fatalf("stops = %d, want 1", hs[1].stops)
	}
	sched.RunUntil(time.Second)
	if len(hs[1].received) != 0 {
		t.Fatal("halted node received in-flight message")
	}
	if timerFired {
		t.Fatal("halted node's timer fired")
	}
	if net.Stats().DroppedInFlight != 1 {
		t.Fatalf("DroppedInFlight = %d, want 1", net.Stats().DroppedInFlight)
	}
}

func TestSendToDownNodeDropped(t *testing.T) {
	sched, net, hs := newTestNet(t, 2, FixedLatency(time.Millisecond))
	net.StartAll()
	net.Halt(1)
	hs[0].ctx.Send(1, "x")
	sched.RunUntil(time.Second)
	if len(hs[1].received) != 0 {
		t.Fatal("down node received message")
	}
	if net.Stats().DroppedNodeDown != 1 {
		t.Fatalf("DroppedNodeDown = %d", net.Stats().DroppedNodeDown)
	}
}

func TestRestartReinvokesStartKeepingHandler(t *testing.T) {
	sched, net, hs := newTestNet(t, 2, FixedLatency(time.Millisecond))
	net.StartAll()
	net.Halt(1)
	net.Restart(1)
	if hs[1].starts != 2 {
		t.Fatalf("starts = %d, want 2", hs[1].starts)
	}
	hs[0].ctx.Send(1, "after-restart")
	sched.RunUntil(time.Second)
	if len(hs[1].received) != 1 {
		t.Fatal("restarted node did not receive")
	}
}

func TestTimersSurviveOnlyCurrentIncarnation(t *testing.T) {
	sched, net, hs := newTestNet(t, 1, FixedLatency(time.Millisecond))
	net.StartAll()
	old := 0
	hs[0].ctx.After(10*time.Millisecond, func() { old++ })
	net.Halt(0)
	net.Restart(0)
	fresh := 0
	hs[0].ctx.After(10*time.Millisecond, func() { fresh++ })
	sched.RunUntil(time.Second)
	if old != 0 {
		t.Fatal("pre-restart timer fired after restart")
	}
	if fresh != 1 {
		t.Fatal("post-restart timer did not fire")
	}
}

func TestPartitionBlocksBothDirectionsAtSendTime(t *testing.T) {
	sched, net, hs := newTestNet(t, 4, FixedLatency(10*time.Millisecond))
	net.StartAll()
	rule := net.Partition([]NodeID{0, 1}, []NodeID{2, 3})
	hs[0].ctx.Send(2, "a-to-b")
	hs[3].ctx.Send(1, "b-to-a")
	hs[0].ctx.Send(1, "same-side")
	// Heal before the messages would have arrived: send-time evaluation
	// means the cross-partition ones are still lost.
	sched.RunUntil(time.Millisecond)
	net.Heal(rule)
	sched.RunUntil(time.Second)
	if len(hs[2].received) != 0 || len(hs[1].received) != 1 {
		t.Fatalf("partition drops wrong: hs2=%v hs1=%v", hs[2].received, hs[1].received)
	}
	if net.Stats().DroppedPartition != 2 {
		t.Fatalf("DroppedPartition = %d, want 2", net.Stats().DroppedPartition)
	}
	// After heal new messages flow.
	hs[0].ctx.Send(2, "after-heal")
	sched.RunUntil(2 * time.Second)
	if len(hs[2].received) != 1 {
		t.Fatal("post-heal message lost")
	}
}

func TestBlockedReflectsRules(t *testing.T) {
	_, net, _ := newTestNet(t, 3, FixedLatency(time.Millisecond))
	rule := net.Partition([]NodeID{0}, []NodeID{1})
	if !net.Blocked(0, 1) || !net.Blocked(1, 0) {
		t.Fatal("rule not symmetric")
	}
	if net.Blocked(0, 2) {
		t.Fatal("unrelated pair blocked")
	}
	net.Heal(rule)
	if net.Blocked(0, 1) {
		t.Fatal("healed rule still blocks")
	}
}

func TestEveryStopsOnCrash(t *testing.T) {
	sched, net, hs := newTestNet(t, 1, FixedLatency(time.Millisecond))
	net.StartAll()
	ticks := 0
	hs[0].ctx.Every(10*time.Millisecond, func() { ticks++ })
	sched.RunUntil(35 * time.Millisecond)
	net.Halt(0)
	sched.RunUntil(200 * time.Millisecond)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate AddNode")
		}
	}()
	_, net, _ := newTestNet(t, 1, nil)
	net.AddNode(0, &echoHandler{})
}

func TestUniformLatencyWithinBounds(t *testing.T) {
	sched := sim.New(3)
	rng := sched.RNG("t")
	u := UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Sample(0, 1, rng)
		if d < u.Min || d >= u.Max {
			t.Fatalf("sample %v outside [%v,%v)", d, u.Min, u.Max)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []any {
		sched := sim.New(99)
		net := New(sched, Config{})
		a := &echoHandler{}
		b := &echoHandler{}
		net.AddNode(0, a)
		net.AddNode(1, b)
		net.StartAll()
		for i := 0; i < 50; i++ {
			i := i
			sched.At(time.Duration(i)*time.Millisecond, func() { a.ctx.Send(1, i) })
		}
		sched.RunUntil(time.Second)
		return b.received
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("replay lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestSendAsDrawsFromTheNamedNodesStreams: a message sent as node v is
// delayed by the draws node v's own Send would have made — whether v sends as
// itself (a plain Send) or another node sends on its behalf — which is what
// lets a flow client carry a modeled client without moving its trajectory.
func TestSendAsDrawsFromTheNamedNodesStreams(t *testing.T) {
	run := func(sender NodeID, send func(ctx *Context, i int)) []any {
		sched := sim.New(99)
		net := New(sched, Config{}) // default uniform latency: arrival order shows the draws
		hs := []*echoHandler{{}, {}, {}}
		for i, h := range hs {
			net.AddNode(NodeID(i), h)
		}
		net.StartAll()
		for i := 0; i < 50; i++ {
			sched.At(time.Duration(i)*time.Millisecond, func() { send(hs[sender].ctx, i) })
		}
		sched.RunUntil(time.Second)
		return hs[2].received
	}
	want := run(0, func(ctx *Context, i int) { ctx.Send(2, i) })
	asSelf := run(0, func(ctx *Context, i int) { ctx.SendAs(0, 2, i) })
	onBehalf := run(1, func(ctx *Context, i int) { ctx.SendAs(0, 2, i) })
	other := run(1, func(ctx *Context, i int) { ctx.Send(2, i) })
	if len(want) != 50 {
		t.Fatalf("received %d of 50", len(want))
	}
	if !reflect.DeepEqual(asSelf, want) {
		t.Fatalf("SendAs(self) order %v, Send order %v", asSelf, want)
	}
	if !reflect.DeepEqual(onBehalf, want) {
		t.Fatalf("SendAs(0) from node 1 order %v, node 0's Send order %v", onBehalf, want)
	}
	if reflect.DeepEqual(other, want) {
		t.Fatal("nodes 0 and 1 drew the same delays: the test cannot tell streams apart")
	}
}

package simnet_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// The simnet microbenchmarks isolate the send/deliver pipeline in the
// regimes STABL campaigns stress: a clean network (SendDeliver), loss and
// jitter rules, a partition-rule-heavy network, and crash/restart churn.
// Run with:
//
//	go test -bench=. -benchmem ./internal/simnet

// sinkHandler counts deliveries and does nothing else, so the network
// benchmarks measure simnet, not the application.
type sinkHandler struct {
	ctx       *simnet.Context
	delivered int
}

func (h *sinkHandler) Start(ctx *simnet.Context)      { h.ctx = ctx }
func (h *sinkHandler) Deliver(_ simnet.NodeID, _ any) { h.delivered++ }
func (h *sinkHandler) Stop()                          {}

func benchNet(nodes int) (*sim.Scheduler, *simnet.Network, []*sinkHandler) {
	sched := sim.New(42)
	net := simnet.New(sched, simnet.Config{
		Latency: simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond},
	})
	hs := make([]*sinkHandler, nodes)
	for i := range hs {
		hs[i] = &sinkHandler{}
		net.AddNode(simnet.NodeID(i), hs[i])
	}
	net.StartAll()
	return sched, net, hs
}

// BenchmarkSendDeliver measures the full send→deliver path between two live
// nodes: every message passes all checks, samples latency, and fires a
// delivery event. This is the dominant per-message cost of every experiment;
// the optimized kernel must cut its allocs/op versus the seed kernel's
// closure-per-message scheme.
func BenchmarkSendDeliver(b *testing.B) {
	const batch = 512
	sched, _, hs := benchNet(2)
	payload := struct{ X int }{7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			hs[0].ctx.Send(1, payload)
		}
		for sched.Step() {
		}
	}
	b.StopTimer()
	if hs[1].delivered != b.N*batch {
		b.Fatalf("delivered %d, want %d", hs[1].delivered, b.N*batch)
	}
	reportRate(b, uint64(b.N)*batch, "msgs/s")
}

// BenchmarkBroadcast measures one broadcast and its drain: every destination
// routed, the flight's destinations sorted into event-key order, and one
// delivery per destination. 9 peers is the paper's deployment, 2,047 the
// scale-mesh fan-out; 511 and 2,047 take the radix sort.
func BenchmarkBroadcast(b *testing.B) {
	for _, peers := range []int{9, 511, 2047} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			sched, _, hs := benchNet(peers + 1)
			ids := make([]simnet.NodeID, peers+1)
			for i := range ids {
				ids[i] = simnet.NodeID(i)
			}
			var payload any = "block"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hs[0].ctx.Broadcast(ids, payload)
				for sched.Step() {
				}
			}
			b.StopTimer()
			if got := hs[peers].delivered; got != b.N {
				b.Fatalf("last peer got %d of %d broadcasts", got, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*peers), "ns/dest")
		})
	}
}

// TestBroadcastSizesArrayOnce checks that a flight built for a 2,047-peer
// broadcast allocates its destination array once, at full size, instead of
// growing it by doubling. On a warm network whose pool holds one unicast
// flight, the first broadcast allocates that array and the pool's sort
// buffer, two objects (twelve when the array doubled up from one); once it
// drained, a second reuses both.
func TestBroadcastSizesArrayOnce(t *testing.T) {
	sched, _, hs := benchNet(2048)
	ids := make([]simnet.NodeID, 2048)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	var payload any = "block"
	broadcast := func() { hs[0].ctx.Broadcast(ids, payload) }
	drain := func() {
		for sched.Step() {
		}
	}
	hs[0].ctx.Send(1, payload) // warms the slot arena and the queue, and pools a flight of one
	drain()
	if got := mallocs(broadcast); got != 2 {
		t.Fatalf("first broadcast allocated %d objects, want 2", got)
	}
	drain()
	if got := mallocs(broadcast); got != 0 {
		t.Fatalf("second broadcast allocated %d objects, want 0", got)
	}
	drain()
	if got := hs[2047].delivered; got != 2 {
		t.Fatalf("last peer got %d deliveries, want 2", got)
	}
}

// mallocs counts the heap objects fn allocates.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkSendDegraded measures the send→deliver path with loss and jitter
// rules installed on both endpoints — the regime of lossy-WAN scenarios.
// Compared against BenchmarkSendDeliver (identical workload, no rules), the
// difference is the degradation cost; the no-rule path itself must stay
// within noise of the pre-degradation kernel, because its only overhead is
// two integer gate checks.
func BenchmarkSendDegraded(b *testing.B) {
	const batch = 512
	sched, net, hs := benchNet(2)
	net.SetLoss(0, 0.05)
	net.SetJitter(1, 2*time.Millisecond)
	payload := struct{ X int }{7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			hs[0].ctx.Send(1, payload)
		}
		for sched.Step() {
		}
	}
	b.StopTimer()
	total := hs[1].delivered + int(net.Stats().DroppedLoss)
	if total != b.N*batch {
		b.Fatalf("delivered %d + lost %d, want %d", hs[1].delivered, net.Stats().DroppedLoss, b.N*batch)
	}
	reportRate(b, uint64(b.N)*batch, "msgs/s")
}

// BenchmarkSendPartitionHeavy measures sends while many partition rules are
// installed — the regime of campaign partition sweeps, where the seed kernel
// scanned every rule per message.
func BenchmarkSendPartitionHeavy(b *testing.B) {
	const batch = 512
	sched, net, hs := benchNet(16)
	// Install 12 single-node rules that never match the 0->1 traffic, plus
	// one that does match half the sends (node 2 is cut from node 3).
	for i := 4; i < 16; i++ {
		net.Partition([]simnet.NodeID{simnet.NodeID(i)}, []simnet.NodeID{simnet.NodeID((i + 1) % 16)})
	}
	net.Partition([]simnet.NodeID{2}, []simnet.NodeID{3})
	payload := "p"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			hs[0].ctx.Send(1, payload) // passes all rules
			hs[2].ctx.Send(3, payload) // dropped by the matching rule
		}
		for sched.Step() {
		}
	}
	b.StopTimer()
	if net.Stats().DroppedPartition != uint64(b.N)*batch {
		b.Fatalf("DroppedPartition = %d, want %d", net.Stats().DroppedPartition, b.N*batch)
	}
	reportRate(b, 2*uint64(b.N)*batch, "msgs/s")
}

// BenchmarkSendChurnHeavy measures the network under connection-managed
// crash/restart churn: heartbeats, idle teardown, reconnect handshakes and
// application traffic all flow through the same send path.
func BenchmarkSendChurnHeavy(b *testing.B) {
	sched := sim.New(42)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(5 * time.Millisecond)})
	const nodes = 8
	peers := make([]simnet.NodeID, nodes)
	hs := make([]*sinkHandler, nodes)
	for i := range hs {
		hs[i] = &sinkHandler{}
		peers[i] = simnet.NodeID(i)
		net.AddNode(simnet.NodeID(i), hs[i])
	}
	net.ManageConns(peers, simnet.ConnParams{
		HeartbeatInterval: 50 * time.Millisecond,
		IdleTimeout:       200 * time.Millisecond,
		ReconnectBase:     100 * time.Millisecond,
	})
	net.StartAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One churn round: traffic, a crash, more traffic, a restart.
		for j := 1; j < nodes; j++ {
			hs[0].ctx.Send(simnet.NodeID(j), i)
		}
		net.Halt(simnet.NodeID(1 + i%(nodes-1)))
		sched.RunUntil(sched.Now() + 300*time.Millisecond)
		net.Restart(simnet.NodeID(1 + i%(nodes-1)))
		for j := 1; j < nodes; j++ {
			hs[0].ctx.Send(simnet.NodeID(j), i)
		}
		sched.RunUntil(sched.Now() + 300*time.Millisecond)
	}
	b.StopTimer()
	reportRate(b, net.Stats().Sent, "msgs/s")
}

// BenchmarkContextRNG measures deriving a node-scoped random stream, done by
// every chain model on every (re)start.
func BenchmarkContextRNG(b *testing.B) {
	_, _, hs := benchNet(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hs[0].ctx.RNG("bench")
	}
}

// BenchmarkStartAll measures booting a large deployment, dominated in the seed
// kernel by the O(n²) insertion sort over node ids.
func BenchmarkStartAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched := sim.New(1)
		net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(time.Millisecond)})
		for j := 0; j < 512; j++ {
			net.AddNode(simnet.NodeID(j), &sinkHandler{})
		}
		b.StartTimer()
		net.StartAll()
	}
}

func reportRate(b *testing.B, n uint64, unit string) {
	b.Helper()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)/sec, unit)
	}
}

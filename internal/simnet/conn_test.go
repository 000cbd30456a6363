package simnet

import (
	"testing"
	"time"

	"stabl/internal/sim"
)

func connTestNet(t *testing.T, n int, params ConnParams) (*sim.Scheduler, *Network, []*echoHandler) {
	t.Helper()
	sched, net, hs := newTestNet(t, n, FixedLatency(5*time.Millisecond))
	peers := make([]NodeID, n)
	for i := range peers {
		peers[i] = NodeID(i)
	}
	net.ManageConns(peers, params)
	net.StartAll()
	return sched, net, hs
}

func defaultConnParams() ConnParams {
	return ConnParams{
		HeartbeatInterval: time.Second,
		IdleTimeout:       10 * time.Second,
		ReconnectBase:     2 * time.Second,
		ReconnectCap:      30 * time.Second,
		Multiplier:        2,
		HandshakeTimeout:  time.Second,
	}
}

// TestConnPairIndex: the rank-pair index is a bijection from the managed
// pairs onto the pair table, in the order ManageConns lists them (peer list
// order, each peer against the ones after it) whatever the ids are, and an
// endpoint outside the peer list never reaches the table.
func TestConnPairIndex(t *testing.T) {
	for _, n := range []int{2, 3, 10, 33} {
		_, net, _ := newTestNet(t, n+2, FixedLatency(time.Millisecond))
		// Ranks run against ids: the peer list is the ids in descending order.
		peers := make([]NodeID, n)
		for i := range peers {
			peers[i] = NodeID(n - 1 - i)
		}
		net.ManageConns(peers, defaultConnParams())
		cm := net.conns
		if len(cm.pairs) != n*(n-1)/2 {
			t.Fatalf("n=%d: %d pairs, want %d", n, len(cm.pairs), n*(n-1)/2)
		}
		next := 0
		for i, a := range peers {
			for _, b := range peers[i+1:] {
				st, rev := cm.pair(net.nodes[a], net.nodes[b]), cm.pair(net.nodes[b], net.nodes[a])
				if st != &cm.pairs[next] || rev != st {
					t.Fatalf("n=%d: pair (%v,%v) is not table entry %d from both sides", n, a, b, next)
				}
				if st.key != makePair(a, b) {
					t.Fatalf("n=%d: entry %d holds %v, want %v", n, next, st.key, makePair(a, b))
				}
				next++
			}
			if cm.pair(net.nodes[a], net.nodes[a]) != nil {
				t.Fatalf("n=%d: peer %v paired with itself", n, a)
			}
		}
		out, out2 := net.nodes[n], net.nodes[n+1]
		if cm.pair(out, net.nodes[0]) != nil || cm.pair(net.nodes[0], out) != nil || cm.pair(out, out2) != nil {
			t.Fatalf("n=%d: an unmanaged endpoint reached the pair table", n)
		}
		if !cm.allowsEp(out, net.nodes[0]) || !cm.allowsEp(net.nodes[0], out) || !cm.allowsEp(out, out2) {
			t.Fatalf("n=%d: traffic of an unmanaged endpoint was gated", n)
		}
		cm.pairs[0].established = false
		if cm.allowsEp(net.nodes[peers[0]], net.nodes[peers[1]]) || !cm.allowsEp(out, net.nodes[peers[0]]) {
			t.Fatalf("n=%d: the gate does not follow the pair's state", n)
		}
	}
}

func TestConnsStartEstablished(t *testing.T) {
	sched, net, hs := connTestNet(t, 2, defaultConnParams())
	hs[0].ctx.Send(1, "x")
	sched.RunUntil(time.Second)
	if len(hs[1].received) != 1 {
		t.Fatal("message over initially-established conn lost")
	}
	if !net.ConnEstablished(0, 1) {
		t.Fatal("conn not established at boot")
	}
}

func TestHeartbeatsKeepIdleConnAlive(t *testing.T) {
	sched, net, hs := connTestNet(t, 2, defaultConnParams())
	// No application traffic for far longer than IdleTimeout.
	sched.RunUntil(60 * time.Second)
	if !net.ConnEstablished(0, 1) {
		t.Fatal("idle conn with heartbeats was torn down")
	}
	hs[0].ctx.Send(1, "still-works")
	sched.RunUntil(61 * time.Second)
	if len(hs[1].received) != 1 {
		t.Fatal("message lost on healthy conn")
	}
}

func TestCrashTearsDownAfterIdleTimeout(t *testing.T) {
	sched, net, _ := connTestNet(t, 2, defaultConnParams())
	sched.RunUntil(5 * time.Second)
	net.Halt(1)
	sched.RunUntil(5*time.Second + 9*time.Second)
	if !net.ConnEstablished(0, 1) {
		t.Fatal("torn down before idle timeout")
	}
	sched.RunUntil(5*time.Second + 13*time.Second)
	if net.ConnEstablished(0, 1) {
		t.Fatal("conn to crashed peer not torn down after idle timeout")
	}
}

func TestRestartActivelyReconnectsFast(t *testing.T) {
	sched, net, hs := connTestNet(t, 2, defaultConnParams())
	sched.RunUntil(5 * time.Second)
	net.Halt(1)
	sched.RunUntil(40 * time.Second) // long outage, conn torn down
	net.Restart(1)
	// Active recovery: reconnect attempt fires immediately, one RTT for
	// CONNECT/ACK (~10ms).
	sched.RunUntil(40*time.Second + 500*time.Millisecond)
	if !net.ConnEstablished(0, 1) {
		t.Fatal("restarted node did not actively reconnect promptly")
	}
	hs[0].ctx.Send(1, "hello-again")
	sched.RunUntil(41 * time.Second)
	if len(hs[1].received) != 1 {
		t.Fatal("message after reconnect lost")
	}
}

func TestPartitionRecoveryBoundedByBackoff(t *testing.T) {
	params := defaultConnParams()
	sched, net, hs := connTestNet(t, 2, params)
	rule := net.Partition([]NodeID{0}, []NodeID{1})
	partAt := sched.Now()
	// Idle timeout (10 s) tears the conn down; reconnect attempts fail
	// under the partition with exponential backoff.
	sched.RunUntil(partAt + 133*time.Second)
	if net.ConnEstablished(0, 1) {
		t.Fatal("conn survived a 133s partition")
	}
	net.Heal(rule)
	healedAt := sched.Now()
	// The conn must come back eventually, within the backoff cap plus
	// handshake slack.
	deadline := healedAt + params.ReconnectCap + 5*time.Second
	for sched.Now() < deadline && !net.ConnEstablished(0, 1) {
		sched.RunUntil(sched.Now() + time.Second)
	}
	if !net.ConnEstablished(0, 1) {
		t.Fatal("conn did not recover within backoff cap after heal")
	}
	recovery := sched.Now() - healedAt
	if recovery <= 0 {
		t.Fatal("recovery instantaneous; expected timer-bound delay")
	}
	hs[0].ctx.Send(1, "post-partition")
	sched.RunUntil(sched.Now() + time.Second)
	if len(hs[1].received) != 1 {
		t.Fatal("message after partition recovery lost")
	}
}

func TestUnmanagedEndpointsUnaffected(t *testing.T) {
	sched := sim.New(7)
	net := New(sched, Config{Latency: FixedLatency(time.Millisecond)})
	a, b, c := &echoHandler{}, &echoHandler{}, &echoHandler{}
	net.AddNode(0, a)
	net.AddNode(1, b)
	net.AddNode(100, c) // client, not in managed peer set
	net.ManageConns([]NodeID{0, 1}, defaultConnParams())
	net.StartAll()
	rule := net.Partition([]NodeID{0}, []NodeID{1})
	_ = rule
	sched.RunUntil(60 * time.Second) // managed conn 0-1 torn down
	c.ctx.Send(0, "client-call")
	sched.RunUntil(61 * time.Second)
	if len(a.received) != 1 {
		t.Fatal("client to node traffic blocked by conn manager")
	}
}

func TestConnStatsCount(t *testing.T) {
	sched, net, _ := connTestNet(t, 2, defaultConnParams())
	net.Halt(1)
	sched.RunUntil(30 * time.Second)
	downs, _ := net.ConnStats()
	if downs == 0 {
		t.Fatal("no teardown counted")
	}
	net.Restart(1)
	sched.RunUntil(40 * time.Second)
	_, reconns := net.ConnStats()
	if reconns == 0 {
		t.Fatal("no re-establishment counted")
	}
}

func TestManageConnsTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on second ManageConns")
		}
	}()
	_, net, _ := newTestNet(t, 2, nil)
	net.ManageConns([]NodeID{0, 1}, ConnParams{})
	net.ManageConns([]NodeID{0, 1}, ConnParams{})
}

func TestTokenBucketImmediateWhenTokensAvailable(t *testing.T) {
	b := NewTokenBucket(100, 10)
	ready := b.Reserve(0, 5)
	if ready != 0 {
		t.Fatalf("ready = %v, want 0", ready)
	}
}

func TestTokenBucketQueuesWhenExhausted(t *testing.T) {
	b := NewTokenBucket(10, 10) // 10 units/s
	b.Reserve(0, 10)            // drain burst
	ready := b.Reserve(0, 5)    // deficit 5 => 0.5 s
	if ready != 500*time.Millisecond {
		t.Fatalf("ready = %v, want 500ms", ready)
	}
	// FIFO: next reservation queues behind.
	ready2 := b.Reserve(0, 5)
	if ready2 != time.Second {
		t.Fatalf("ready2 = %v, want 1s", ready2)
	}
}

func TestTokenBucketRefills(t *testing.T) {
	b := NewTokenBucket(10, 10)
	b.Reserve(0, 10)
	if got := b.Available(time.Second); got < 9.99 || got > 10.01 {
		t.Fatalf("available after 1s = %v, want ~10", got)
	}
	if b.Backlog(time.Second) != 0 {
		t.Fatal("backlog after refill should be zero")
	}
}

func TestTokenBucketBacklogGrowsUnderOverload(t *testing.T) {
	b := NewTokenBucket(10, 10)
	var last time.Duration
	for i := 0; i < 100; i++ {
		last = b.Reserve(0, 10)
	}
	if last < 90*time.Second {
		t.Fatalf("100x overload ready time = %v, want >= 90s", last)
	}
	if b.Backlog(0) <= 0 {
		t.Fatal("backlog should be positive under overload")
	}
}

func TestTokenBucketPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero rate")
		}
	}()
	NewTokenBucket(0, 1)
}

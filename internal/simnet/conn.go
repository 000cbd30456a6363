package simnet

import (
	"fmt"
	"time"

	"stabl/internal/sim"
)

// ConnParams configures the TCP-like connection layer between blockchain
// peers. Real blockchain nodes talk over long-lived connections that are
// torn down when idle and re-established by timer-driven retries; those
// timers, not packet-level reachability, dominate how fast a system recovers
// from a network partition (STABL §6). Each blockchain model supplies its
// own parameters.
type ConnParams struct {
	// HeartbeatInterval is the keep-alive ping cadence on established
	// connections (also the idle-check cadence).
	HeartbeatInterval time.Duration
	// IdleTimeout tears a connection down when no traffic has been
	// received from the peer for this long (Redbelly's MaxIdleTime).
	IdleTimeout time.Duration
	// ReconnectBase is the delay before the first reconnection attempt
	// after a teardown or a failed attempt.
	ReconnectBase time.Duration
	// ReconnectCap bounds the exponential backoff.
	ReconnectCap time.Duration
	// Multiplier is the backoff growth factor (values below 1 mean no
	// growth).
	Multiplier float64
	// HandshakeTimeout bounds one CONNECT/ACK exchange.
	HandshakeTimeout time.Duration
}

func (p ConnParams) normalized() ConnParams {
	if p.HeartbeatInterval <= 0 {
		p.HeartbeatInterval = time.Second
	}
	if p.IdleTimeout <= 0 {
		p.IdleTimeout = 10 * time.Second
	}
	if p.ReconnectBase <= 0 {
		p.ReconnectBase = 2 * time.Second
	}
	if p.ReconnectCap < p.ReconnectBase {
		p.ReconnectCap = p.ReconnectBase
	}
	if p.Multiplier < 1 {
		p.Multiplier = 1
	}
	if p.HandshakeTimeout <= 0 {
		p.HandshakeTimeout = 2 * time.Second
	}
	return p
}

// Control payloads exchanged by the connection layer. They travel over the
// same simulated links as application traffic (subject to partitions and
// node liveness) but bypass the "connection established" gate, exactly like
// TCP SYN/keep-alive segments.
type (
	connPing struct{}
	connReq  struct{ epoch uint64 }
	connAck  struct{ epoch uint64 }
)

type pairKey struct{ a, b NodeID }

func makePair(x, y NodeID) pairKey {
	if x < y {
		return pairKey{x, y}
	}
	return pairKey{y, x}
}

type pairState struct {
	key pairKey
	connState
}

// connState is one managed connection pair's mutable state; the pairState
// object is identity-preserved (retry/ack closures capture it, and the pair
// table never moves it).
type connState struct {
	established bool
	lastRecvA   time.Duration // last time key.a received traffic from key.b
	lastRecvB   time.Duration
	attempt     int
	epoch       uint64
	retryTimer  sim.Timer
	ackTimer    sim.Timer
}

type connManager struct {
	net    *Network
	params ConnParams
	// pairs holds every managed pair, indexed by the two peers' ranks in the
	// managed peer list (see pairIndex): row-major over rank pairs i < j,
	// which is also the order tick visits them in — pings sample the
	// senders' RNG streams, so that order is part of the trajectory. Sized
	// once by ManageConns; timers hold pointers into it.
	pairs  []pairState
	npeers int
	ticker *sim.Ticker
	connCounts
}

// pairIndex is the position of rank pair i < j among n managed peers in
// row-major triangular order: (0,1), (0,2), …, (0,n-1), (1,2), ….
func pairIndex(i, j, n int) int { return i*(2*n-i-1)/2 + j - i - 1 }

// connCounts is the connection manager's own mutable state.
type connCounts struct {
	downs   uint64 // teardown count, for tests
	reconns uint64 // successful re-establishments, for tests
}

// ManageConns activates the connection layer between the given peers.
// All pairs start established. Endpoints outside the peer set (clients,
// observers) are unaffected. Must be called once, before StartAll.
func (n *Network) ManageConns(peers []NodeID, params ConnParams) {
	if n.conns != nil {
		panic("simnet: ManageConns called twice")
	}
	cm := &connManager{
		net:    n,
		params: params.normalized(),
		pairs:  make([]pairState, 0, len(peers)*(len(peers)-1)/2),
		npeers: len(peers),
	}
	now := n.sched.Now()
	for i, id := range peers {
		ep := n.mustNode(id)
		if ep.connRank != 0 {
			panic(fmt.Sprintf("simnet: ManageConns lists %v twice", id))
		}
		ep.connRank = int32(i + 1)
	}
	for i, a := range peers {
		for _, b := range peers[i+1:] {
			cm.pairs = append(cm.pairs, pairState{key: makePair(a, b), connState: connState{established: true, lastRecvA: now, lastRecvB: now}})
		}
	}
	cm.ticker = sim.NewTicker(n.sched, cm.params.HeartbeatInterval, cm.tick)
	n.conns = cm
}

// ConnEstablished reports whether the connection between two managed peers
// is currently up; it returns true for unmanaged pairs.
func (n *Network) ConnEstablished(a, b NodeID) bool {
	if n.conns == nil {
		return true
	}
	return n.conns.allows(a, b)
}

// ConnStats returns (teardowns, re-establishments) observed so far.
func (n *Network) ConnStats() (uint64, uint64) {
	if n.conns == nil {
		return 0, 0
	}
	return n.conns.downs, n.conns.reconns
}

func (cm *connManager) allows(from, to NodeID) bool {
	return cm.allowsEp(cm.net.mustNode(from), cm.net.mustNode(to))
}

// pair returns the state of the managed pair {a, b}: an index computed from
// the two ranks and one load. It is nil when either endpoint is outside the
// connection layer, or the two are one.
func (cm *connManager) pair(a, b *endpoint) *pairState {
	i, j := int(a.connRank), int(b.connRank)
	if i > j {
		i, j = j, i
	}
	if i == 0 || i == j {
		return nil
	}
	return &cm.pairs[pairIndex(i-1, j-1, cm.npeers)]
}

// allowsEp is the send-path gate; traffic that does not involve two managed
// peers (clients, observers) passes on the rank check alone.
func (cm *connManager) allowsEp(src, dst *endpoint) bool {
	if src.connRank == 0 || dst.connRank == 0 {
		return true
	}
	st := cm.pair(src, dst)
	return st != nil && st.established
}

// observeTraffic records that `to` heard from `from` at the given execution
// time. Callers pass their own queue's clock: the two lastRecv fields of a
// pair are written by the two endpoints' partitions respectively, and read
// only at barriers (tick runs on the root queue), so the connection layer
// needs no locks in parallel mode.
func (cm *connManager) observeTraffic(from, to NodeID, now time.Duration) {
	st := cm.pair(cm.net.nodes[from], cm.net.nodes[to])
	if st == nil {
		return
	}
	if to == st.key.a {
		st.lastRecvA = now
	} else {
		st.lastRecvB = now
	}
}

// tick sends keep-alives and performs idle detection.
func (cm *connManager) tick() {
	now := cm.net.sched.Now()
	for i := range cm.pairs {
		st := &cm.pairs[i]
		if !st.established {
			continue
		}
		aUp := cm.net.IsUp(st.key.a)
		bUp := cm.net.IsUp(st.key.b)
		// Keep-alive pings from each live side.
		if aUp {
			cm.sendControl(st.key.a, st.key.b, connPing{})
		}
		if bUp {
			cm.sendControl(st.key.b, st.key.a, connPing{})
		}
		// Idle detection: only a live side can notice the silence.
		idleA := aUp && now-st.lastRecvA > cm.params.IdleTimeout
		idleB := bUp && now-st.lastRecvB > cm.params.IdleTimeout
		if idleA || idleB {
			cm.teardown(st)
		}
	}
}

func (cm *connManager) teardown(st *pairState) {
	if !st.established {
		return
	}
	st.established = false
	st.attempt = 0
	st.epoch++
	cm.downs++
	cm.net.trace(TraceEvent{Kind: TraceConnDown, Node: st.key.a, Peer: st.key.b, Detail: "idle timeout"})
	cm.scheduleRetry(st, cm.params.ReconnectBase)
}

func (cm *connManager) scheduleRetry(st *pairState, delay time.Duration) {
	st.retryTimer.Stop()
	epoch := st.epoch
	st.retryTimer = cm.net.sched.After(delay, func() {
		if st.established || st.epoch != epoch {
			return
		}
		cm.attemptConnect(st)
	})
}

func (cm *connManager) attemptConnect(st *pairState) {
	st.attempt++
	// The lower-id live endpoint initiates; if neither is up the attempt
	// is a no-op and the retry timer keeps running.
	initiator, acceptor := st.key.a, st.key.b
	if !cm.net.IsUp(initiator) {
		initiator, acceptor = st.key.b, st.key.a
	}
	if cm.net.IsUp(initiator) {
		cm.sendControl(initiator, acceptor, connReq{epoch: st.epoch})
	}
	epoch := st.epoch
	st.ackTimer.Stop()
	st.ackTimer = cm.net.sched.After(cm.params.HandshakeTimeout, func() {
		if st.established || st.epoch != epoch {
			return
		}
		cm.scheduleRetry(st, cm.backoff(st.attempt))
	})
}

func (cm *connManager) backoff(attempt int) time.Duration {
	d := cm.params.ReconnectBase
	for i := 1; i < attempt; i++ {
		d = time.Duration(float64(d) * cm.params.Multiplier)
		if d >= cm.params.ReconnectCap {
			return cm.params.ReconnectCap
		}
	}
	if d > cm.params.ReconnectCap {
		d = cm.params.ReconnectCap
	}
	return d
}

// handleControl processes a delivered connection-layer payload. It reports
// whether the payload was a control message (and therefore must not reach
// the application handler).
func (cm *connManager) handleControl(from, to NodeID, payload any) bool {
	switch msg := payload.(type) {
	case connPing:
		return true
	case connReq:
		st := cm.pair(cm.net.nodes[from], cm.net.nodes[to])
		if st != nil && !st.established && msg.epoch == st.epoch {
			cm.sendControl(to, from, connAck{epoch: msg.epoch})
		}
		return true
	case connAck:
		st := cm.pair(cm.net.nodes[from], cm.net.nodes[to])
		if st != nil && !st.established && msg.epoch == st.epoch {
			cm.establish(st)
		}
		return true
	default:
		return false
	}
}

func (cm *connManager) establish(st *pairState) {
	st.established = true
	st.attempt = 0
	st.epoch++
	cm.reconns++
	cm.net.trace(TraceEvent{Kind: TraceConnUp, Node: st.key.a, Peer: st.key.b, Detail: "handshake"})
	now := cm.net.sched.Now()
	st.lastRecvA = now
	st.lastRecvB = now
	st.retryTimer.Stop()
	st.ackTimer.Stop()
}

// nodeRestarted implements active recovery: a freshly restarted node tears
// down whatever connections it nominally had (the old sockets died with the
// process) and immediately dials every peer.
func (cm *connManager) nodeRestarted(id NodeID) {
	if cm.net.nodes[id].connRank == 0 {
		return
	}
	for i := range cm.pairs {
		st := &cm.pairs[i]
		if st.key.a != id && st.key.b != id {
			continue
		}
		if st.established {
			st.established = false
			st.epoch++
			cm.downs++
			cm.net.trace(TraceEvent{Kind: TraceConnDown, Node: st.key.a, Peer: st.key.b, Detail: "peer restarted"})
		}
		st.attempt = 0
		cm.scheduleRetry(st, 0)
	}
}

// sendControl bypasses the established-connection gate (control traffic is
// how connections come up) but still honours partitions and liveness. Like
// application sends it rides a pooled flight of one.
func (cm *connManager) sendControl(from, to NodeID, payload any) {
	n := cm.net
	src := n.mustNode(from)
	dst := n.mustNode(to)
	if !src.up || n.Blocked(from, to) || !dst.up {
		return
	}
	// Injected loss hits control traffic too (a netem rule cannot tell a
	// heartbeat from a block): lossy links therefore also churn the
	// connection layer, like in a real deployment.
	if n.lossyIfaces > 0 && n.lost(src, to, src.loss) {
		return
	}
	// Control flights mutate shared pair state, so they execute on the root
	// queue (lane -1) regardless of the receiver's partition — but they are
	// keyed by the sender's lane so the total event order is the same one the
	// sequential kernel produces. sendControl only runs from root contexts
	// (the heartbeat ticker, retry timers, control handlers), so the root
	// clock and pool 0 are the right ones.
	f := n.newFlight(0, false, from, payload, n.sched.TakeLaneSeq(int32(from)), true)
	f.dests = append(f.dests, flightDest{
		at: n.sched.Now() + n.delay(src, to, src.lat, src.jit), inc: dst.incarnation, dst: int32(to),
	})
	f.arm()
}

// receive hands an arrived control message to the connection layer, unless
// the destination crashed or restarted since the send. Control flights
// always execute on the root queue, so the root clock is the execution
// clock.
func (cm *connManager) receive(from NodeID, dst *endpoint, payload any, inc uint64) {
	if !dst.up || dst.incarnation != inc {
		return
	}
	cm.observeTraffic(from, dst.id, cm.net.sched.Now())
	cm.handleControl(from, dst.id, payload)
}

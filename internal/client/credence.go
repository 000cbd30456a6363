package client

import (
	"time"

	"stabl/internal/chain"
	"stabl/internal/simnet"
)

// VerifiedReader is a credence.js-style secure read client (the library the
// paper's §9 names as future work): instead of trusting one validator's
// answer, every read is sent to t+1 validators and accepted only when all
// their responses carry the same account state. With at most t Byzantine
// validators, at least one of any t+1 responses comes from a correct node,
// so unanimity guarantees the value is genuine.
//
// Chains commit at slightly different instants, so two honest validators can
// legitimately disagree for a moment; mismatching reads are therefore
// retried before being reported as a divergence.
type VerifiedReader struct {
	cfg ReaderConfig
	readerState
}

// readerState is what a VerifiedReader mutates after construction, and its
// checkpoint.
type readerState struct {
	ctx     *simnet.Context
	rng     interface{ Intn(int) int }
	pending map[uint64]*pendingRead
	seq     uint64

	latencies   []float64
	reads       int
	mismatches  int // transient disagreements that later converged
	divergences int // reads that never converged within the retry budget
}

// ReaderConfig parameterizes a VerifiedReader.
type ReaderConfig struct {
	// Endpoints are the t+1 validators every read queries.
	Endpoints []simnet.NodeID
	// Accounts is the universe read from (picked uniformly).
	Accounts []chain.Address
	// Rate is the read issue rate in reads/s.
	Rate float64
	// Timeout bounds one read round before it counts as mismatching.
	Timeout time.Duration
	// MaxRetries bounds re-reads after a mismatch before declaring a
	// divergence.
	MaxRetries int
	// RetryDelay spaces re-reads out, giving lagging replicas time to
	// converge; defaults to Timeout.
	RetryDelay time.Duration
	// Stop ends read issuing; zero means never.
	Stop time.Duration
}

func (c ReaderConfig) withDefaults() ReaderConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = c.Timeout
	}
	return c
}

type pendingRead struct {
	addr      chain.Address
	started   time.Duration
	attempt   int
	responses map[simnet.NodeID]chain.ReadResp
}

var _ simnet.Handler = (*VerifiedReader)(nil)

// NewVerifiedReader creates a reader.
func NewVerifiedReader(cfg ReaderConfig) *VerifiedReader {
	if len(cfg.Endpoints) == 0 {
		panic("client: verified reader needs endpoints")
	}
	if len(cfg.Accounts) == 0 {
		panic("client: verified reader needs accounts")
	}
	if cfg.Rate <= 0 {
		panic("client: verified reader rate must be positive")
	}
	return &VerifiedReader{cfg: cfg.withDefaults(), readerState: readerState{pending: make(map[uint64]*pendingRead)}}
}

// Start implements simnet.Handler.
func (r *VerifiedReader) Start(ctx *simnet.Context) {
	r.ctx = ctx
	r.rng = ctx.RNG("credence")
	interval := time.Duration(float64(time.Second) / r.cfg.Rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ctx.Every(interval, r.tick)
}

// Stop implements simnet.Handler.
func (r *VerifiedReader) Stop() {}

// Deliver implements simnet.Handler.
func (r *VerifiedReader) Deliver(from simnet.NodeID, payload any) {
	resp, ok := payload.(chain.ReadResp)
	if !ok {
		return
	}
	p, ok := r.pending[resp.Seq]
	if !ok {
		return
	}
	p.responses[from] = resp
	if len(p.responses) < len(r.cfg.Endpoints) {
		return
	}
	r.finish(resp.Seq, p)
}

func (r *VerifiedReader) tick() {
	now := r.ctx.Now()
	if r.cfg.Stop > 0 && now >= r.cfg.Stop {
		return
	}
	addr := r.cfg.Accounts[r.rng.Intn(len(r.cfg.Accounts))]
	r.issue(addr, now, 0)
}

func (r *VerifiedReader) issue(addr chain.Address, started time.Duration, attempt int) {
	r.seq++
	seq := r.seq
	r.pending[seq] = &pendingRead{
		addr:      addr,
		started:   started,
		attempt:   attempt,
		responses: make(map[simnet.NodeID]chain.ReadResp, len(r.cfg.Endpoints)),
	}
	if attempt == 0 {
		r.reads++
	}
	for _, ep := range r.cfg.Endpoints {
		r.ctx.Send(ep, chain.ReadReq{Seq: seq, Addr: addr})
	}
	r.ctx.After(r.cfg.Timeout, func() {
		if p, live := r.pending[seq]; live {
			// Missing responses count as disagreement: a silent
			// validator is indistinguishable from a lying one.
			r.retryOrDiverge(seq, p)
		}
	})
}

func (r *VerifiedReader) finish(seq uint64, p *pendingRead) {
	if r.unanimous(p) {
		delete(r.pending, seq)
		r.latencies = append(r.latencies, (r.ctx.Now() - p.started).Seconds())
		return
	}
	r.retryOrDiverge(seq, p)
}

// unanimous reports whether all endpoints returned the same account state.
func (r *VerifiedReader) unanimous(p *pendingRead) bool {
	var first *chain.ReadResp
	for _, resp := range p.responses {
		resp := resp
		if first == nil {
			first = &resp
			continue
		}
		if resp.Balance != first.Balance || resp.Nonce != first.Nonce {
			return false
		}
	}
	return first != nil
}

func (r *VerifiedReader) retryOrDiverge(seq uint64, p *pendingRead) {
	delete(r.pending, seq)
	r.mismatches++
	if p.attempt >= r.cfg.MaxRetries {
		r.divergences++
		return
	}
	r.ctx.After(r.cfg.RetryDelay, func() {
		r.issue(p.addr, p.started, p.attempt+1)
	})
}

// Latencies returns verified-read latencies in seconds.
func (r *VerifiedReader) Latencies() []float64 { return r.latencies }

// Reads returns how many logical reads were issued.
func (r *VerifiedReader) Reads() int { return r.reads }

// Mismatches returns how many read rounds disagreed (including rounds that
// later converged on retry).
func (r *VerifiedReader) Mismatches() int { return r.mismatches }

// Divergences returns how many reads never converged: with fewer than t+1
// honest responses, the client refuses to return a value.
func (r *VerifiedReader) Divergences() int { return r.divergences }

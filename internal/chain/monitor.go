package chain

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"stabl/internal/metrics"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// CommitEvent is one unique transaction commit observed chain-side.
type CommitEvent struct {
	ID        TxID
	Submitted time.Duration
	Committed time.Duration
}

// Monitor is the experiment-wide observer of chain progress. Every
// validator reports the blocks it applies; the monitor deduplicates so each
// transaction and block is counted once, yielding the throughput-over-time
// series of Figures 4-6 and the liveness signal behind the infinite
// sensitivity score.
type Monitor struct {
	monitorState
	rec *metrics.Recorder //stabl:nodet snapshot-fields -- identity-preserved attachment; the Recorder checkpoints through its own Forkable state
	// par is non-nil in parallel mode only (see EnableParallel).
	par *monitorPar
}

// monitorState is what a Monitor accumulates, and its checkpoint: the dedup
// set, the commit log and the chain-integrity trail.
type monitorState struct {
	// seen is the dedup set, the validators' table type with one meaning:
	// a non-zero cell is a transaction already counted.
	seen       txTable
	commits    []CommitEvent
	maxHeight  int
	lastCommit time.Duration
	// heights[h] is the hash of the first block any validator reported at
	// height h, zero while nobody has (a hole sync fills on individual
	// nodes). Every later report at h must carry the same hash.
	heights   []Hash
	forks     []heightFork
	integrity []string
}

// heightFork is one height at which validators committed different blocks.
type heightFork struct {
	height int
	other  Hash // the first hash reported that is not heights[height]
	n      int  // reports that are not heights[height]
}

// monitorPar is the parallel-mode buffering. The monitor is cross-cutting
// state every validator writes, so in parallel mode reports made inside a
// lookahead window are buffered per queue, stamped with the reporting
// event's key, and merged at the next barrier in global key order — the
// exact order the sequential kernel would have applied them in.
type monitorPar struct {
	sched   *sim.Scheduler
	queueOf []int32
	buf     [][]monEntry // drained at every barrier
	scratch []monEntry   // merge scratch space, logically empty between flushes
}

// monEntry is one buffered report: either a block application or a
// consensus event, keyed by the partition event that made it.
type monEntry struct {
	key   sim.EventKey
	block bool
	b     Block
	now   time.Duration
	ev    metrics.Event
}

// NewMonitor creates an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{monitorState: monitorState{maxHeight: -1}}
}

// SetMetrics attaches a metrics recorder: unique commits become counters
// and latency observations, and consensus events flow through
// ConsensusEvent. A nil recorder (the default) makes both no-ops.
func (m *Monitor) SetMetrics(rec *metrics.Recorder) { m.rec = rec }

// Metrics returns the attached recorder, if any.
func (m *Monitor) Metrics() *metrics.Recorder { return m.rec }

// EnableParallel switches the monitor to buffered mode for the parallel
// kernel: queueOf maps node ids to partition queues (see internal/parsim)
// and the flush merge registers as a barrier hook. Must be paired with the
// scheduler's and network's EnableParallel.
func (m *Monitor) EnableParallel(sched *sim.Scheduler, queueOf []int32, workers int) {
	if m.par != nil {
		panic("chain: Monitor.EnableParallel called twice")
	}
	m.par = &monitorPar{sched: sched, queueOf: slices.Clone(queueOf), buf: make([][]monEntry, workers+1)}
	sched.OnBarrier(m.flush)
}

// DisableParallel reverts to direct application, the sequential fallback the
// forking API takes. Buffers must be empty (they always are at a barrier).
func (m *Monitor) DisableParallel() {
	if m.par == nil {
		return
	}
	for _, b := range m.par.buf {
		if len(b) != 0 {
			panic("chain: Monitor.DisableParallel with buffered reports")
		}
	}
	m.par = nil
}

// queueIdx resolves the reporting node's partition queue — the queue whose
// execution context is making the call, so each buffer has one writer.
func (p *monitorPar) queueIdx(id simnet.NodeID) int32 {
	if id >= 0 && int(id) < len(p.queueOf) {
		return p.queueOf[id]
	}
	return 0
}

// flush merges all buffered reports in global event-key order and applies
// them. Runs as a barrier hook with every partition quiesced; keys are
// unique across queues (each is an executing event's key), and the stable
// sort keeps same-key reports — multiple calls from one event — in call
// order.
func (m *Monitor) flush() {
	p := m.par
	merged := p.scratch[:0]
	for _, b := range p.buf {
		merged = append(merged, b...)
	}
	if len(merged) == 0 {
		return
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].key.Less(merged[j].key) })
	for i := range merged {
		e := &merged[i]
		if e.block {
			m.applyBlock(e.b, e.now)
		} else {
			m.applyEvent(e.ev)
		}
		*e = monEntry{}
	}
	p.scratch = merged[:0]
	for i := range p.buf {
		p.buf[i] = p.buf[i][:0]
	}
}

// ConsensusEvent forwards a protocol event from a validator to the attached
// recorder; it is the single funnel every chain model emits through.
func (m *Monitor) ConsensusEvent(ev metrics.Event) {
	if p := m.par; p != nil && p.sched.InWindow() {
		qi := p.queueIdx(ev.Node)
		p.buf[qi] = append(p.buf[qi], monEntry{key: p.sched.ExecKey(int32(ev.Node)), ev: ev})
		return
	}
	m.applyEvent(ev)
}

func (m *Monitor) applyEvent(ev metrics.Event) {
	if m.rec != nil {
		m.rec.AddEvent(ev)
	}
}

// RecordBlock registers a block applied by a validator. Blocks already seen
// (applied by another validator first) only update nothing.
func (m *Monitor) RecordBlock(id simnet.NodeID, b Block, now time.Duration) {
	if p := m.par; p != nil && p.sched.InWindow() {
		qi := p.queueIdx(id)
		p.buf[qi] = append(p.buf[qi], monEntry{key: p.sched.ExecKey(int32(id)), block: true, b: b, now: now})
		return
	}
	m.applyBlock(b, now)
}

func (m *Monitor) applyBlock(b Block, now time.Duration) {
	hash := b.seal() // already computed when a BaseNode reports
	if b.Height <= m.maxHeight {
		m.agree(b.Height, hash)
		return
	}
	// Integrity: consecutive heights must link up; gaps (filled later by
	// sync on individual nodes) cannot be linkage-checked here.
	if m.maxHeight >= 0 && b.Height == m.maxHeight+1 && b.Parent != m.heights[m.maxHeight] {
		m.integrity = append(m.integrity,
			fmt.Sprintf("block %d parent %v does not extend %v", b.Height, b.Parent, m.heights[m.maxHeight]))
	}
	m.heights = append(m.heights, make([]Hash, b.Height+1-len(m.heights))...)
	m.heights[b.Height] = hash
	m.maxHeight = b.Height
	if m.rec != nil {
		m.rec.Count(now, "blocks_committed", 1)
	}
	for _, tx := range b.Txs {
		s := m.seen.slot(tx.ID)
		if *s != 0 {
			continue
		}
		*s = 1
		m.commits = append(m.commits, CommitEvent{ID: tx.ID, Submitted: tx.Submitted, Committed: now})
		m.lastCommit = now
		if m.rec != nil {
			m.rec.Count(now, "tx_committed", 1)
			m.rec.Observe(now, "commit_latency", (now - tx.Submitted).Seconds())
		}
	}
}

// agree is the per-height agreement check: a report at a height somebody
// already reported must carry the first-seen hash. Disagreements fold into
// one record per height, however many validators are on the other side.
func (m *Monitor) agree(height int, hash Hash) {
	first := &m.heights[height]
	switch {
	case *first == hash:
	case first.IsZero():
		*first = hash
	default:
		for i := len(m.forks) - 1; i >= 0; i-- {
			if m.forks[i].height == height {
				m.forks[i].n++
				return
			}
		}
		m.forks = append(m.forks, heightFork{height: height, other: hash, n: 1})
	}
}

// Commits returns the unique commit events in commit order. The returned
// slice is shared; callers must not modify it.
func (m *Monitor) Commits() []CommitEvent { return m.commits }

// UniqueCommits returns the number of unique committed transactions.
func (m *Monitor) UniqueCommits() int { return len(m.commits) }

// MaxHeight returns the highest applied block height, or -1.
func (m *Monitor) MaxHeight() int { return m.maxHeight }

// LastCommitAt returns the time of the most recent unique commit.
func (m *Monitor) LastCommitAt() time.Duration { return m.lastCommit }

// IntegrityErrors lists the safety violations observed across the recorded
// block sequence: broken parent links in report order, then one entry per
// height at which validators committed different blocks. A correct
// deployment reports none.
func (m *Monitor) IntegrityErrors() []string {
	out := append([]string(nil), m.integrity...)
	for _, f := range m.forks {
		out = append(out, fmt.Sprintf("height %d: %d validators committed %v, first seen %v",
			f.height, f.n, f.other, m.heights[f.height]))
	}
	return out
}

// CommittedSince counts unique commits at or after t.
func (m *Monitor) CommittedSince(t time.Duration) int {
	n := 0
	for i := len(m.commits) - 1; i >= 0; i-- {
		if m.commits[i].Committed < t {
			break
		}
		n++
	}
	return n
}

package chain

// Mempool is a FIFO transaction pool with deduplication against both its own
// contents and an external committed-check (usually the node's ledger).
// Mempool contents are volatile: they are lost on crash, which is why
// transient failures create client-visible backlogs.
type Mempool struct {
	// txs holds the in-pool bit of every queued transaction. A node's
	// pool shares its ledger's table, so the same probe also answers
	// "already committed"; a standalone pool has a table of its own.
	txs       *txTable
	committed func(TxID) bool
	poolState
}

// poolState is what a node's Mempool mutates after construction, and its
// checkpoint: the queue and counters. The in-pool marks travel with the
// shared table in ledgerState.
type poolState struct {
	queue    []Tx
	added    uint64
	rejected uint64
}

// NewMempool creates a pool. committed may be nil, in which case only
// in-pool duplicates are rejected.
func NewMempool(committed func(TxID) bool) *Mempool {
	return &Mempool{txs: new(txTable), committed: committed}
}

// Add enqueues tx unless it is already pending or committed. It reports
// whether the transaction was accepted.
func (m *Mempool) Add(tx Tx) bool {
	if m.committed != nil && m.committed(tx.ID) {
		m.rejected++
		return false
	}
	s := m.txs.slot(tx.ID)
	if *s&^(txMark|txPipeline|txSubscribed) != 0 { // pooled, or committed in the shared table
		m.rejected++
		return false
	}
	*s |= txPooled
	m.queue = append(m.queue, tx)
	m.added++
	return true
}

// Contains reports whether tx is currently pending.
func (m *Mempool) Contains(id TxID) bool { return m.txs.state(id)&txPooled != 0 }

// Len returns the number of pending transactions.
func (m *Mempool) Len() int { return len(m.queue) }

// Peek returns up to max pending transactions in FIFO order without
// removing them. With max <= 0 it returns all of them.
func (m *Mempool) Peek(max int) []Tx {
	n := len(m.queue)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Tx, n)
	copy(out, m.queue[:n])
	return out
}

// Pending returns the pending transactions in FIFO order as a read-only view
// of the pool's own queue: do not retain or mutate it — the next Add, Pop,
// Drop or Clear invalidates it. Scans that stop early use it instead of
// Peek's copy.
func (m *Mempool) Pending() []Tx { return m.queue }

// Pop removes and returns up to max pending transactions in FIFO order.
func (m *Mempool) Pop(max int) []Tx {
	out := m.Peek(max)
	m.queue = m.queue[len(out):]
	for _, tx := range out {
		m.txs.clear(tx.ID, txPooled)
	}
	return out
}

// Drop removes the given transactions (typically a block's, because they
// committed in a block proposed by another node). The queue is only
// compacted when one of them was actually pending.
func (m *Mempool) Drop(txs []Tx) {
	dropped := 0
	for _, tx := range txs {
		if m.txs.clear(tx.ID, txPooled)&txPooled != 0 {
			dropped++
		}
	}
	if dropped == 0 {
		return
	}
	kept := m.queue[:0]
	for i, tx := range m.queue {
		if dropped == 0 { // the rest of the queue is untouched
			kept = append(kept, m.queue[i:]...)
			break
		}
		if m.txs.state(tx.ID)&txPooled == 0 {
			dropped--
			continue
		}
		kept = append(kept, tx)
	}
	m.queue = kept
}

// Clear empties the pool; used to model volatile state lost on crash.
func (m *Mempool) Clear() {
	m.queue = nil
	m.txs.sweep(txPooled)
}

// Stats returns (accepted, rejected) counters.
func (m *Mempool) Stats() (uint64, uint64) { return m.added, m.rejected }

// Package workload generates the native-transfer workload STABL uses: each
// client issues transfers at a constant rate from a small set of accounts it
// owns, with strictly increasing per-account nonces (the ordering constraint
// that matters for Avalanche's gossip behaviour, STABL §7).
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"stabl/internal/chain"
)

// Flow produces a deterministic stream of transfer transactions for k
// modeled clients. It derives everything arithmetically from one sequence
// counter — member, per-member sequence, sender account and nonce — so
// "millions of users" costs one struct plus a nonce slice bounded by the
// folded account count, not a heap of per-client state.
//
// Equivalence contract: a flow submitting one transaction per member per
// tick emits what its members would emit as k single-member flows. Sequence
// s maps to member m = s mod k and per-member sequence t = s div k; the
// emitted TxID is MakeTxID(start+m, t), the sender account is the one
// client start+m owns (round-robin over its perClient accounts, which keeps
// nonce chains uniform) for its t-th transaction, and its nonce is that
// account's use count. Only the recipient draw differs structurally: the k
// modeled clients share one flow RNG stream instead of one stream each.
// Recipients never influence event timing (transfers cannot fail — genesis
// balances exceed any run's spend), so scores are unaffected; the
// flow-vs-per-client golden pins this.
type Flow struct {
	start      uint32 // global client index of member 0
	clients    int    // k, modeled clients
	perClient  int    // accounts per modeled client before folding
	acctBase   chain.Address
	accts      int // folded account count owned by this flow
	recipients int // recipient universe: addresses [0, recipients)
	rng        *rand.Rand
	flowState
}

// flowState is what a Flow mutates after construction, and its checkpoint:
// the folded nonce slice and the sequence counter. The RNG stream position
// lives in the scheduler (the *rand.Rand handed to NewFlow is registered
// there).
type flowState struct {
	nonces []uint64
	seq    uint64
}

// NewFlow builds a flow modeling `clients` clients, namespaced from global
// client index `start`. The flow owns the folded account range [acctBase,
// acctBase+accts); accts == clients*perClient disables folding (client
// start+m owns perClient accounts of its own), smaller values fold many
// modeled clients onto a bounded account set so account state stays
// O(accts) regardless of k. recipients is the experiment-wide destination
// universe [0, recipients).
func NewFlow(start uint32, clients, perClient int, acctBase chain.Address, accts, recipients int, rng *rand.Rand) (*Flow, error) {
	if clients <= 0 || perClient <= 0 {
		return nil, fmt.Errorf("workload: flow needs positive clients (%d) and accounts per client (%d)", clients, perClient)
	}
	if accts <= 0 {
		return nil, fmt.Errorf("workload: flow needs a positive account count, got %d", accts)
	}
	if unfolded := clients * perClient; accts > unfolded {
		return nil, fmt.Errorf("workload: flow account count %d exceeds the unfolded layout %d", accts, unfolded)
	}
	if recipients <= 0 {
		return nil, fmt.Errorf("workload: flow needs a positive recipient universe, got %d", recipients)
	}
	return &Flow{
		start:      start,
		clients:    clients,
		perClient:  perClient,
		acctBase:   acctBase,
		accts:      accts,
		recipients: recipients,
		rng:        rng,
		flowState:  flowState{nonces: make([]uint64, accts)},
	}, nil
}

// Clients returns k, the number of clients this flow models.
func (f *Flow) Clients() int { return f.clients }

// Next produces the next transaction, stamped with the submission time.
// Callers submit in whole member rounds (k calls per tick), so member
// attribution is s mod k without per-member state.
func (f *Flow) Next(now time.Duration) chain.Tx {
	member := uint32(f.seq % uint64(f.clients))
	t := f.seq / uint64(f.clients)
	// The account client start+member would use for its t-th transaction,
	// folded onto this flow's account range.
	idx := int((uint64(member)*uint64(f.perClient) + t%uint64(f.perClient)) % uint64(f.accts))
	from := f.acctBase + chain.Address(idx)
	to := chain.Address(f.rng.Intn(f.recipients))
	for to == from && f.recipients > 1 {
		to = chain.Address(f.rng.Intn(f.recipients))
	}
	nonce := f.nonces[idx]
	f.nonces[idx] = nonce + 1
	tx := chain.Tx{
		ID:        chain.MakeTxID(f.start+member, uint32(t)),
		From:      from,
		To:        to,
		Amount:    1,
		Nonce:     nonce,
		Submitted: now,
	}
	f.seq++
	return tx
}

// Issued returns how many transactions have been generated across all
// modeled clients.
func (f *Flow) Issued() uint64 { return f.seq }

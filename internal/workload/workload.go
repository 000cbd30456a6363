// Package workload generates the native-transfer workload STABL uses: each
// client issues transfers at a constant rate from a small set of accounts it
// owns, with strictly increasing per-account nonces (the ordering constraint
// that matters for Avalanche's gossip behaviour, STABL §7).
package workload

import (
	"math/rand"
	"time"

	"stabl/internal/chain"
)

// Generator produces a deterministic stream of transfer transactions for one
// client.
type Generator struct {
	client     uint32
	accounts   []chain.Address
	recipients []chain.Address
	rng        *rand.Rand
	genState
}

// genState is what a Generator mutates after construction, and its
// checkpoint. The RNG stream position lives in the scheduler (the *rand.Rand
// handed to NewGenerator is registered there).
type genState struct {
	nonces map[chain.Address]uint64
	seq    uint32
}

// NewGenerator creates a generator for the given client index. accounts are
// the sender accounts owned by this client (round-robin source selection
// keeps nonce chains uniform); recipients is the universe of destination
// accounts.
func NewGenerator(client uint32, accounts, recipients []chain.Address, rng *rand.Rand) *Generator {
	if len(accounts) == 0 {
		panic("workload: generator needs at least one account")
	}
	if len(recipients) == 0 {
		recipients = accounts
	}
	return &Generator{
		client:     client,
		accounts:   append([]chain.Address(nil), accounts...),
		recipients: append([]chain.Address(nil), recipients...),
		rng:        rng,
		genState:   genState{nonces: make(map[chain.Address]uint64, len(accounts))},
	}
}

// Next produces the next transaction, stamped with the submission time.
func (g *Generator) Next(now time.Duration) chain.Tx {
	from := g.accounts[int(g.seq)%len(g.accounts)]
	to := g.recipients[g.rng.Intn(len(g.recipients))]
	for to == from && len(g.recipients) > 1 {
		to = g.recipients[g.rng.Intn(len(g.recipients))]
	}
	nonce := g.nonces[from]
	g.nonces[from] = nonce + 1
	tx := chain.Tx{
		ID:        chain.MakeTxID(g.client, g.seq),
		From:      from,
		To:        to,
		Amount:    1,
		Nonce:     nonce,
		Submitted: now,
	}
	g.seq++
	return tx
}

// Issued returns how many transactions have been generated.
func (g *Generator) Issued() uint32 { return g.seq }

// Accounts enumerates addr ranges for an experiment: client i owns accounts
// [i*perClient, (i+1)*perClient).
func Accounts(clients, perClient int) [][]chain.Address {
	out := make([][]chain.Address, clients)
	next := chain.Address(0)
	for i := range out {
		accts := make([]chain.Address, perClient)
		for j := range accts {
			accts[j] = next
			next++
		}
		out[i] = accts
	}
	return out
}

// AllAccounts flattens the per-client account sets.
func AllAccounts(sets [][]chain.Address) []chain.Address {
	var out []chain.Address
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

package chain

import (
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
)

// GenesisAccount funds an account at chain genesis on every validator (see
// NewGenesis).
type GenesisAccount struct {
	Addr    Address
	Balance uint64
}

// System abstracts one blockchain model so the STABL harness can deploy any
// of the five chains identically. Implementations live in
// internal/{algorand,aptos,avalanche,redbelly,solana}.
type System interface {
	// Name returns the blockchain's display name.
	Name() string
	// Tolerance returns t_B, the number of failures the chain claims to
	// tolerate in an n-validator network (STABL §2: ceil(n/5)-1 for
	// Algorand and Avalanche, ceil(n/3)-1 for Aptos, Redbelly, Solana).
	Tolerance(n int) int
	// ConnParams returns the chain's peer-connection timers, which govern
	// partition detection and reconnection (STABL §6).
	ConnParams() simnet.ConnParams
	// NewValidator constructs validator id of the given validator set,
	// its ledger started from genesis (shared by the whole deployment).
	NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *Monitor, genesis *Genesis) Validator
}

// Validator is one deployed chain node: a network handler whose whole state
// checkpoints (snapshot.Forkable), built on the shared validator core it
// exposes through Base — ledger, mempool, sync and overlay relay.
type Validator interface {
	simnet.Handler
	snapshot.Forkable
	Base() *BaseNode
}

// ToleranceFifth is ceil(n/5) - 1 (Algorand, Avalanche).
func ToleranceFifth(n int) int {
	t := (n+4)/5 - 1
	if t < 0 {
		return 0
	}
	return t
}

// ToleranceThird is ceil(n/3) - 1 (Aptos, Redbelly, Solana).
func ToleranceThird(n int) int {
	t := (n+2)/3 - 1
	if t < 0 {
		return 0
	}
	return t
}

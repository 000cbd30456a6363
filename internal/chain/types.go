// Package chain provides the common blockchain building blocks shared by
// the five protocol models: accounts, native-transfer transactions, blocks,
// per-node ledgers with deterministic execution, FIFO mempools with
// deduplication, and a BaseNode that implements the client-facing and
// catch-up behaviour every validator needs.
package chain

import (
	"fmt"
	"time"

	"stabl/internal/simnet"
)

// Address identifies an account. Addresses are indexes into each ledger's
// account table, so they must be dense: a deployment with k accounts uses
// exactly 0..k-1 (core lays the flows' account ranges out contiguously from
// zero). A ledger sizes its table to the highest address it has credited, so
// a sparse or arbitrary 32-bit address costs memory proportional to its
// value, not to the number of accounts.
type Address uint32

// TxID uniquely identifies a transaction across the whole experiment.
// It packs the issuing client and a per-client sequence number so that
// deduplication is trivial and IDs are stable across redundant submissions.
//
// Like Address, a TxID is a position: every validator indexes its transaction
// table by (client, sequence), so ids must come from MakeTxID with small
// client indexes and per-client contiguous sequences (workload.Flow numbers
// its members from a contiguous start and each member's transactions from a
// running counter). A client's sequences may start anywhere — a table row
// covers the span it has seen, not the prefix below it — but a sparse or
// arbitrary 64-bit id costs memory proportional to its distance from the
// client's other ids, not a wrong answer. The table cell holds four flags
// (first-sight mark, pooled, in pipeline, a client subscribed on this node)
// and the committed height in the 28 bits above them, so a ledger records
// heights up to 2^28 - 2 and Append returns an error past that.
type TxID uint64

// MakeTxID builds a TxID from a client index and per-client sequence.
func MakeTxID(client uint32, seq uint32) TxID {
	return TxID(uint64(client)<<32 | uint64(seq))
}

// Client extracts the issuing client index.
func (id TxID) Client() uint32 { return uint32(id >> 32) }

// Seq extracts the per-client sequence number.
func (id TxID) Seq() uint32 { return uint32(id) }

// String implements fmt.Stringer.
func (id TxID) String() string { return fmt.Sprintf("tx%d.%d", id.Client(), id.Seq()) }

// Tx is a native transfer, the workload used by all STABL experiments.
type Tx struct {
	ID        TxID
	From      Address
	To        Address
	Amount    uint64
	Nonce     uint64
	Submitted time.Duration // client-side submission instant
}

// Block is a decided batch of transactions. Parent is the content address
// of the previous block, making the committed history a hash chain that
// every validator verifies on apply.
//
// A Block literal is unsealed. BaseNode.SubmitBlock seals its copy — hashes
// it once — and the hash rides with that copy through the node's pipeline,
// ledger and monitor report, and with the copies its ledger serves to
// catching-up peers; an unsealed block reaching a ledger or the monitor is
// hashed there. A sealed block must not be modified.
type Block struct {
	Height    int
	Proposer  simnet.NodeID
	Parent    Hash
	Txs       []Tx
	DecidedAt time.Duration

	hash   Hash // HashBlock of the fields above, once sealed
	sealed bool
}

// seal returns the block's content address, computing it on the first call.
func (b *Block) seal() Hash {
	if !b.sealed {
		b.hash, b.sealed = HashBlock(*b), true
	}
	return b.hash
}

// Client-facing wire messages. Every chain model understands these; the
// client SDKs in internal/client speak them.
type (
	// SubmitTx asks a validator to get Tx committed.
	SubmitTx struct {
		Tx Tx
	}
	// TxCommitted tells a client its transaction reached the ledger of
	// the responding validator.
	TxCommitted struct {
		ID     TxID
		Height int
	}
	// ReadReq asks a validator for an account's current state. Seq lets
	// clients match responses to requests.
	ReadReq struct {
		Seq  uint64
		Addr Address
	}
	// ReadResp answers a ReadReq with the validator's view of the
	// account. A credence.js-style client compares the responses of t+1
	// validators before trusting any of them.
	ReadResp struct {
		Seq     uint64
		Addr    Address
		Balance uint64
		Nonce   uint64
		Height  int
	}
)

// Catch-up wire messages used by BaseNode.
type (
	// SyncReq asks a peer for blocks from height From (inclusive).
	SyncReq struct {
		From int
	}
	// SyncResp carries a contiguous run of blocks.
	SyncResp struct {
		Blocks []Block
	}
)

package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Hash is a 32-byte content address.
type Hash [32]byte

// String renders the first 8 bytes in hex, enough for logs.
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// IsZero reports whether the hash is all zeroes (the genesis parent).
func (h Hash) IsZero() bool { return h == Hash{} }

// txHashBytes is what one transaction contributes to HashBlock's stream:
// half a SHA-256 block.
const txHashBytes = 32

// HashBlock computes a block's content address in one pass: height, proposer
// and parent link, then each transaction's ID, From, To, Amount and Nonce in
// block order, streamed through a single SHA-256. Tx.ID is an experiment-level
// identifier chosen by the client; binding the transfer contents beside it is
// what lets validators cross-check them. DecidedAt and each transaction's
// Submitted are explicitly excluded: every validator observes the decision at
// a slightly different instant, but all of them must agree on the block's
// identity.
//
// HashBlock always reads the content; validators call it once per block (see
// Block) and Ledger.VerifyChain checks that a carried hash still matches.
func HashBlock(b Block) Hash {
	h := sha256.New()
	var buf [16 * txHashBytes]byte // flushed when full
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(b.Height))
	le.PutUint64(buf[8:], uint64(b.Proposer))
	n := 16 + copy(buf[16:], b.Parent[:])
	for i := range b.Txs {
		if n+txHashBytes > len(buf) {
			_, _ = h.Write(buf[:n])
			n = 0
		}
		tx := &b.Txs[i]
		le.PutUint64(buf[n:], uint64(tx.ID))
		le.PutUint32(buf[n+8:], uint32(tx.From))
		le.PutUint32(buf[n+12:], uint32(tx.To))
		le.PutUint64(buf[n+16:], tx.Amount)
		le.PutUint64(buf[n+24:], tx.Nonce)
		n += txHashBytes
	}
	_, _ = h.Write(buf[:n])
	var out Hash
	h.Sum(out[:0])
	return out
}

package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"stabl/internal/chain"
)

// testStart is the global client index of the test flows' member 0; their
// accounts sit where an unfolded layout of testPerClient accounts per client
// puts them, inside a recipient universe two clients wider.
const (
	testStart     = 1
	testPerClient = 4
)

func testFlow(t *testing.T, k int) *Flow {
	t.Helper()
	f, err := NewFlow(testStart, k, testPerClient, testStart*testPerClient, k*testPerClient,
		(testStart+k+1)*testPerClient, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// forMembers runs fn on a single-member flow (one client's generator) and on
// a three-member one.
func forMembers(t *testing.T, fn func(t *testing.T, f *Flow)) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { fn(t, testFlow(t, k)) })
	}
}

func TestGeneratorUniqueIDs(t *testing.T) {
	forMembers(t, func(t *testing.T, f *Flow) {
		k := f.Clients()
		seen := make(map[chain.TxID]bool)
		for i := 0; i < 999; i++ {
			tx := f.Next(time.Duration(i))
			if seen[tx.ID] {
				t.Fatalf("duplicate ID %v", tx.ID)
			}
			seen[tx.ID] = true
			// Whole member rounds: call i is member i mod k's (i div k)-th.
			if want := uint32(testStart + i%k); tx.ID.Client() != want {
				t.Fatalf("tx %d: client = %d, want %d", i, tx.ID.Client(), want)
			}
			if want := uint32(i / k); tx.ID.Seq() != want {
				t.Fatalf("tx %d: seq = %d, want %d", i, tx.ID.Seq(), want)
			}
		}
		if f.Issued() != 999 {
			t.Fatalf("Issued = %d", f.Issued())
		}
	})
}

func TestGeneratorNoncesStrictlyIncreasePerAccount(t *testing.T) {
	forMembers(t, func(t *testing.T, f *Flow) {
		last := make(map[chain.Address]int64)
		owner := make(map[chain.Address]uint32)
		for i := 0; i < 400*f.Clients(); i++ {
			tx := f.Next(0)
			prev, seen := last[tx.From]
			if seen && int64(tx.Nonce) != prev+1 {
				t.Fatalf("nonce gap for %d: %d after %d", tx.From, tx.Nonce, prev)
			}
			if !seen && tx.Nonce != 0 {
				t.Fatalf("first nonce = %d", tx.Nonce)
			}
			last[tx.From] = int64(tx.Nonce)
			// Unfolded, a sender account belongs to one client: the one whose
			// range [c*perClient, (c+1)*perClient) holds it.
			if c, ok := owner[tx.From]; ok && c != tx.ID.Client() {
				t.Fatalf("account %d used by clients %d and %d", tx.From, c, tx.ID.Client())
			}
			owner[tx.From] = tx.ID.Client()
			if want := uint32(tx.From) / testPerClient; tx.ID.Client() != want {
				t.Fatalf("client %d sent from account %d, owned by client %d", tx.ID.Client(), tx.From, want)
			}
		}
		if len(last) != f.Clients()*testPerClient {
			t.Fatalf("%d sender accounts used, want all %d", len(last), f.Clients()*testPerClient)
		}
	})
}

// TestFoldedFlowKeepsNonceChains: folding k clients onto fewer accounts than
// they would own shares accounts between members but never breaks a chain.
func TestFoldedFlowKeepsNonceChains(t *testing.T) {
	f, err := NewFlow(0, 5, 4, 8, 6, 32, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	next := make(map[chain.Address]uint64)
	for i := 0; i < 1000; i++ {
		tx := f.Next(0)
		if tx.From < 8 || tx.From >= 8+6 {
			t.Fatalf("sender %d outside the folded range [8, 14)", tx.From)
		}
		if tx.Nonce != next[tx.From] {
			t.Fatalf("account %d: nonce %d, want %d", tx.From, tx.Nonce, next[tx.From])
		}
		next[tx.From]++
	}
}

func TestGeneratorNeverSelfTransfer(t *testing.T) {
	forMembers(t, func(t *testing.T, f *Flow) {
		for i := 0; i < 500; i++ {
			tx := f.Next(0)
			if tx.From == tx.To {
				t.Fatal("self transfer generated")
			}
			if int(tx.To) >= (testStart+f.Clients()+1)*testPerClient {
				t.Fatalf("recipient %d outside the universe", tx.To)
			}
		}
	})
}

func TestGeneratorStampsSubmissionTime(t *testing.T) {
	forMembers(t, func(t *testing.T, f *Flow) {
		tx := f.Next(42 * time.Second)
		if tx.Submitted != 42*time.Second {
			t.Fatalf("Submitted = %v", tx.Submitted)
		}
	})
}

// The constructor guards: core hands NewFlow spans it computed itself, so
// each of these is a layout bug surfaced as an error, not a panic.
func TestGeneratorPanicsWithoutAccounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name                                string
		clients, perClient, accts, universe int
	}{
		{"no clients", 0, 4, 4, 4},
		{"no accounts per client", 1, 0, 4, 4},
		{"no accounts", 1, 4, 0, 4},
		{"negative accounts", 1, 4, -1, 4},
		{"more accounts than the unfolded layout", 2, 4, 9, 9},
		{"no recipients", 1, 4, 4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if f, err := NewFlow(0, tc.clients, tc.perClient, 0, tc.accts, tc.universe, rng); err == nil {
				t.Fatalf("accepted: %+v", f)
			}
		})
	}
}

// Property: two flows with the same seed produce identical streams, and a
// restored flow replays the stream it produced after the checkpoint.
func TestPropertyGeneratorDeterminism(t *testing.T) {
	for _, k := range []int{1, 3} {
		f := func(seed int64, n uint8) bool {
			mk := func() *Flow {
				fl, err := NewFlow(0, k, 3, 0, 3*k, 3*k, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				return fl
			}
			f1, f2 := mk(), mk()
			for i := 0; i < int(n); i++ {
				if f1.Next(0) != f2.Next(0) {
					return false
				}
			}
			// Snapshot covers nonces and sequence; the RNG position is the
			// scheduler's to restore, so compare everything but the recipient.
			st := f1.Snapshot()
			var want []chain.Tx
			for i := 0; i < int(n); i++ {
				want = append(want, f1.Next(0))
			}
			f1.Restore(st)
			for _, w := range want {
				got := f1.Next(0)
				got.To = w.To
				if got != w {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

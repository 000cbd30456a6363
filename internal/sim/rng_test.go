package sim

import "testing"

// Deriving a name again must be invisible: streams drawn from repeated
// derivations are byte-identical to the first, and every RNG call still
// returns a fresh stream positioned at its start.

func TestRNGSeedMemoizationDoesNotChangeStreams(t *testing.T) {
	fresh := New(42)  // derives each name once
	cached := New(42) // derives each name three times
	names := []string{"node/0/timeout", "node/1/timeout", "workload/0", "simnet.latency"}
	want := make(map[string][]int64)
	for _, name := range names {
		r := fresh.RNG(name)
		vals := make([]int64, 16)
		for i := range vals {
			vals[i] = r.Int63()
		}
		want[name] = vals
	}
	for round := 0; round < 3; round++ {
		for _, name := range names {
			r := cached.RNG(name)
			for i, w := range want[name] {
				if got := r.Int63(); got != w {
					t.Fatalf("round %d, %q[%d]: repeated derivation %d, first %d", round, name, i, got, w)
				}
			}
		}
	}
}

func TestRNGSeedMatchesRNG(t *testing.T) {
	a := New(7)
	b := New(7)
	seed := a.RNGSeed("x")
	if got := b.RNG("x").Int63(); got != a.RNG("x").Int63() {
		t.Fatal("RNG not reproducible across schedulers")
	}
	if again := b.RNGSeed("x"); again != seed {
		t.Fatalf("RNGSeed unstable: %d then %d", seed, again)
	}
}

func TestRNGFreshStreamEachCall(t *testing.T) {
	s := New(3)
	first := s.RNG("stream").Int63()
	second := s.RNG("stream").Int63()
	if first != second {
		t.Fatalf("second RNG call resumed mid-stream: %d vs %d", first, second)
	}
}

// TestRNGAfterRestoreKeepsAbandonedStreams: streams share allocation blocks,
// whose cursor a restore does not rewind — a stream issued after a
// checkpoint is abandoned by the restore, not recycled, and one issued after
// the restore shares no state with it.
func TestRNGAfterRestoreKeepsAbandonedStreams(t *testing.T) {
	s := New(5)
	s.RNG("before")
	st := s.Snapshot()
	abandoned := s.RNG("abandoned")
	s.Restore(st)
	after := s.RNG("after")
	want := New(5).RNG("after")
	for i := 0; i < 8; i++ {
		abandoned.Int63()
		if got, w := after.Int63(), want.Int63(); got != w {
			t.Fatalf("draw %d: the stream issued after the restore read %d, a fresh one %d", i, got, w)
		}
	}
}

package avalanche

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"stabl/internal/chain"
	"stabl/internal/simnet"
)

// refSamplePeers is samplePeersN before it kept only the k smallest keys:
// every candidate gets the float key -ln(1-r/2^30)/stake, all of them are
// sorted, and the first k are the sample.
func refSamplePeers(v *validator, k int) []simnet.NodeID {
	var others []keyed
	for _, p := range v.base.Peers {
		if p == v.base.ID {
			continue
		}
		u := 1 - float64(v.rng.Intn(1<<30))/float64(1<<30)
		others = append(others, keyed{id: p, key: -math.Log(u) / v.stake(int(p))})
	}
	slices.SortFunc(others, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	var out []simnet.NodeID
	for _, o := range others[:min(k, len(others))] {
		out = append(out, o.id)
	}
	return out
}

// scriptRNG replays draws as 30-bit values: byte b becomes b<<22, so a short
// script repeats values and the keys tie.
type scriptRNG struct {
	draws []byte
	pos   int
}

func (s *scriptRNG) Intn(n int) int {
	b := s.draws[s.pos%len(s.draws)]
	s.pos++
	return int(b) << 22 % n
}

func (s *scriptRNG) Shuffle(int, func(int, int)) { panic("samplePeersN does not shuffle") }

// FuzzSamplePeers holds samplePeersN to refSamplePeers on committees of up to
// 13 validators (where the reference's sort is a stable insertion sort), for
// any k, with and without StakeWeights: the same sample in the same order,
// and the same number of draws taken from the stream.
func FuzzSamplePeers(f *testing.F) {
	f.Add(uint8(10), uint8(5), false, []byte{7, 3, 9, 3, 1, 200, 255, 0, 42})
	f.Add(uint8(10), uint8(3), true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(11), uint8(12), true, []byte{48, 50}) // stakes 1 and 2 reorder equal draws
	f.Add(uint8(13), uint8(6), false, []byte{5, 5, 5, 1, 1, 5, 0, 5})
	f.Add(uint8(13), uint8(12), true, []byte{9, 9, 3, 9, 3})
	f.Add(uint8(4), uint8(9), false, []byte{0})
	f.Add(uint8(1), uint8(1), true, []byte{})
	f.Fuzz(func(t *testing.T, n, k uint8, weighted bool, draws []byte) {
		if len(draws) == 0 {
			draws = []byte{0}
		}
		size := 1 + int(n)%13
		peers := make([]simnet.NodeID, size)
		for i := range peers {
			peers[i] = simnet.NodeID(i)
		}
		cfg := DefaultConfig()
		if weighted {
			// Some stakes default to 1: zero weights, and the last
			// validator past the end of the list.
			cfg.StakeWeights = make([]float64, size-1)
			for i := range cfg.StakeWeights {
				cfg.StakeWeights[i] = float64(draws[i%len(draws)] % 4)
			}
		}
		sample := func(sampler func(v *validator) []simnet.NodeID) ([]simnet.NodeID, int) {
			v, ok := NewSystem(cfg).NewValidator(simnet.NodeID(size/2), peers, chain.NewMonitor(), nil).(*validator)
			if !ok {
				t.Fatal("unexpected validator type")
			}
			rng := &scriptRNG{draws: draws}
			v.rng = rng
			return sampler(v), rng.pos
		}
		kk := int(k) % (size + 2)
		got, gotPos := sample(func(v *validator) []simnet.NodeID { return v.samplePeersN(kk, nil) })
		want, wantPos := sample(func(v *validator) []simnet.NodeID { return refSamplePeers(v, kk) })
		if !slices.Equal(got, want) || gotPos != wantPos {
			t.Fatalf("n=%d k=%d weighted=%v: sample %v after %d draws, reference %v after %d",
				size, kk, weighted, got, gotPos, want, wantPos)
		}
	})
}

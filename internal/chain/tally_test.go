package chain

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"stabl/internal/committee"
	"stabl/internal/simnet"
)

const (
	tallyRounds = 8
	tallySteps  = 3
	tallyValues = 3
)

// refTally is the map-of-maps vote book the Tally replaced: round -> step ->
// voter -> value, with each (round, step)'s values in first-arrival order
// beside it.
type refTally struct {
	books map[int]map[int]map[simnet.NodeID]int
	order map[[2]int][]int
}

func newRefTally() *refTally {
	return &refTally{books: map[int]map[int]map[simnet.NodeID]int{}, order: map[[2]int][]int{}}
}

// add records a vote unless the voter already voted at (round, step), and
// reports whether it did.
func (r *refTally) add(round, step int, voter simnet.NodeID, value int) bool {
	steps, ok := r.books[round]
	if !ok {
		steps = map[int]map[simnet.NodeID]int{}
		r.books[round] = steps
	}
	voters, ok := steps[step]
	if !ok {
		voters = map[simnet.NodeID]int{}
		steps[step] = voters
	}
	if _, dup := voters[voter]; dup {
		return false
	}
	voters[voter] = value
	k := [2]int{round, step}
	if !slices.Contains(r.order[k], value) {
		r.order[k] = append(r.order[k], value)
	}
	return true
}

func (r *refTally) prune(below int) {
	for round := range r.books {
		if round < below {
			delete(r.books, round)
		}
	}
	for k := range r.order {
		if k[0] < below {
			delete(r.order, k)
		}
	}
}

func (r *refTally) clone() *refTally {
	c := newRefTally()
	for round, steps := range r.books {
		c.books[round] = map[int]map[simnet.NodeID]int{}
		for step, voters := range steps {
			c.books[round][step] = maps.Clone(voters)
		}
	}
	for k, vs := range r.order {
		c.order[k] = slices.Clone(vs)
	}
	return c
}

// counts returns the (round, step) values in first-arrival order with their
// vote counts.
func (r *refTally) counts(round, step int) []Votes[int] {
	var out []Votes[int]
	for _, value := range r.order[[2]int{round, step}] {
		n := 0
		for _, v := range r.books[round][step] {
			if v == value {
				n++
			}
		}
		out = append(out, Votes[int]{Value: value, Count: n})
	}
	return out
}

// tallyModel drives a Tally and a refTally through the same operations.
type tallyModel struct {
	t      *testing.T
	n      int
	tally  Tally[int]
	ref    *refTally
	seats  func(round, step int) *committee.Committee
	quorum int
	clones []tallyPair
}

type tallyPair struct {
	tally Tally[int]
	ref   *refTally
}

// newTallyModel reads the deployment from the first two bytes: the voter
// count, and either a full-membership quorum or a seed for per-(round, step)
// seat masks.
func newTallyModel(t *testing.T, n int, mode byte) *tallyModel {
	m := &tallyModel{t: t, n: n, ref: newRefTally(), quorum: 1 + int(mode>>1)%n}
	if mode&1 == 1 {
		// Committee mode: every (round, step) seats a random subset, built
		// as the committee of a table whose unseated members hold no stake.
		rng := rand.New(rand.NewSource(int64(mode)))
		var comms [tallyRounds + 1][tallySteps]*committee.Committee
		for r := range comms {
			for s := range comms[r] {
				stakes := make([]uint64, n)
				stakes[rng.Intn(n)] = 1
				for i := range stakes {
					if rng.Intn(3) > 0 {
						stakes[i] = 1
					}
				}
				tab, err := committee.NewTable(stakes)
				if err != nil {
					t.Fatal(err)
				}
				comms[r][s] = tab.Extract(0, 0, 0, n)
			}
		}
		m.seats = func(round, step int) *committee.Committee { return comms[round][step] }
	}
	m.tally = NewTally[int](n, m.quorum, m.seats)
	return m
}

func (m *tallyModel) seated(round, step int, voter simnet.NodeID) bool {
	return m.seats == nil || m.seats(round, step).IsMember(int(voter))
}

func (m *tallyModel) threshold(round, step int) int {
	if m.seats == nil {
		return m.quorum
	}
	return m.seats(round, step).Quorum()
}

// add applies one vote to a pair and checks Add's answer: a vote counts when
// its voter is seated and has not voted at (round, step) before.
func (m *tallyModel) add(p *tallyPair, round, step int, voter simnet.NodeID, value int) {
	m.t.Helper()
	want := m.seated(round, step, voter) && p.ref.add(round, step, voter, value)
	if got := p.tally.Add(round, step, voter, value); got != want {
		m.t.Fatalf("Add(%d, %d, %d, %d) = %v, want %v", round, step, voter, value, got, want)
	}
}

// check holds every (round, step) of a pair to its reference.
func (m *tallyModel) check(label string, p *tallyPair) {
	m.t.Helper()
	for round := 0; round <= tallyRounds; round++ {
		for step := 0; step < tallySteps; step++ {
			want := p.ref.counts(round, step)
			got := p.tally.Values(round, step)
			if !slices.Equal(got, want) {
				m.t.Fatalf("%s: (%d, %d) values %v, want %v", label, round, step, got, want)
			}
			if got, want := p.tally.Voters(round, step), len(p.ref.books[round][step]); got != want {
				m.t.Fatalf("%s: (%d, %d) voters %d, want %d", label, round, step, got, want)
			}
			wantQ, wantOK := 0, false
			for _, vc := range want {
				if vc.Count >= m.threshold(round, step) {
					wantQ, wantOK = vc.Value, true
					break
				}
			}
			if q, ok := p.tally.Quorum(round, step); q != wantQ || ok != wantOK {
				m.t.Fatalf("%s: (%d, %d) quorum (%d, %v), want (%d, %v)", label, round, step, q, ok, wantQ, wantOK)
			}
			for value := 0; value < tallyValues; value++ {
				n := 0
				for _, vc := range want {
					if vc.Value == value {
						n = vc.Count
					}
				}
				if got := p.tally.Count(round, step, value); got != n {
					m.t.Fatalf("%s: (%d, %d) count of %d is %d, want %d", label, round, step, value, got, n)
				}
			}
		}
	}
}

// run interprets ops four bytes at a time: [kind, a, b, c]. Kinds 0-4 vote
// (round a, step b, voter c, value kind>>3), 5 prunes below a, 6 clones the
// tally and its reference, 7 votes into the newest clone only.
func (m *tallyModel) run(ops []byte) {
	live := tallyPair{tally: m.tally, ref: m.ref}
	for ; len(ops) >= 4; ops = ops[4:] {
		kind, a, b, c := ops[0], int(ops[1]), int(ops[2]), int(ops[3])
		round, step := a%(tallyRounds+1), b%tallySteps
		voter := simnet.NodeID(c % (m.n + 3)) // ids past n grow the bitset
		value := int(kind>>3) % tallyValues
		switch kind % 8 {
		case 5:
			live.tally.Prune(round)
			live.ref.prune(round)
		case 6:
			if len(m.clones) == 4 {
				m.clones = m.clones[1:]
			}
			m.clones = append(m.clones, tallyPair{tally: live.tally.Clone(), ref: live.ref.clone()})
		case 7:
			if len(m.clones) > 0 {
				m.add(&m.clones[len(m.clones)-1], round, step, voter, value)
			}
		default:
			m.add(&live, round, step, voter, value)
			// A second vote by the same voter at (round, step) never counts.
			if live.tally.Add(round, step, voter, (value+1)%tallyValues) {
				m.t.Fatalf("repeat vote of %d at (%d, %d) counted", voter, round, step)
			}
		}
		m.check("tally", &live)
	}
	for i := range m.clones {
		m.check("clone", &m.clones[i])
	}
}

// FuzzTally holds the Tally to the map-of-maps book it replaced over random
// votes, seat masks, prunes and clones mutated after the copy.
func FuzzTally(f *testing.F) {
	f.Add([]byte{4, 0})
	f.Add([]byte{4, 6, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 5, 2, 0, 0})                          // quorum 4 of 4, prune
	f.Add([]byte{9, 1, 0, 0, 0, 0, 8, 0, 0, 1, 16, 0, 0, 2, 6, 0, 0, 0, 7, 0, 0, 3, 0, 0, 0, 3}) // committee mode, clone
	long := []byte{70, 9}
	for i := 0; i < 120; i++ {
		long = append(long, byte(i*11), byte(i), byte(i/3), byte(i*7))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		if len(ops) > 2+4*400 {
			ops = ops[:2+4*400]
		}
		newTallyModel(t, 1+int(ops[0])%80, ops[1]).run(ops[2:])
	})
}

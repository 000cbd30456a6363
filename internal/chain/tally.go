package chain

import (
	"cmp"
	"slices"

	"stabl/internal/committee"
	"stabl/internal/simnet"
)

// Tally is the vote book of a quorum protocol, shared by every model that
// decides by supermajority: votes are keyed by (round, step, value), a voter
// counts once per (round, step) — its first vote wins — and only voters the
// (round, step) committee seats are admitted. A step is whatever phase the
// model votes in (Algorand's soft/cert/next, Redbelly's sub-rounds, Aptos's
// vote and timeout); the value is what the vote names.
//
// Without a seats function every voter is seated and each step's quorum is
// the fixed one given to NewTally (committee.Quorum(n, t)); with one, seats
// and quorum come from the extracted (round, step) committee.
//
// Books are kept sorted by (round, step), each one a voter bitset and the
// values in the order they first arrived, so nothing iterates a map and a
// checkpoint is one Clone.
type Tally[V comparable] struct {
	n      int // voter ids are below n (larger ones grow the bitset)
	quorum int
	seats  func(round, step int) *committee.Committee
	books  []book[V]
}

// book is one (round, step) of a Tally.
type book[V comparable] struct {
	round, step int
	voters      nodeSet
	values      []Votes[V]
}

// Votes is one value's count at a (round, step).
type Votes[V comparable] struct {
	Value V
	Count int
}

// NewTally returns an empty tally for voters 0..n-1. seats, when non-nil,
// returns the (round, step) committee that seats voters and sizes quorums;
// when nil, everyone is seated and quorum applies to every step.
func NewTally[V comparable](n, quorum int, seats func(round, step int) *committee.Committee) Tally[V] {
	return Tally[V]{n: n, quorum: quorum, seats: seats}
}

// find returns the index of the (round, step) book, or where it belongs.
func (t *Tally[V]) find(round, step int) (int, bool) {
	return slices.BinarySearchFunc(t.books, [2]int{round, step}, func(b book[V], k [2]int) int {
		return cmp.Or(cmp.Compare(b.round, k[0]), cmp.Compare(b.step, k[1]))
	})
}

// Seated reports whether id sits on the (round, step) committee.
func (t *Tally[V]) Seated(round, step int, id simnet.NodeID) bool {
	return t.seats == nil || t.seats(round, step).IsMember(int(id))
}

// Threshold returns the (round, step) quorum.
func (t *Tally[V]) Threshold(round, step int) int {
	if t.seats == nil {
		return t.quorum
	}
	return t.seats(round, step).Quorum()
}

// Add counts voter's vote for value at (round, step) and reports whether it
// counted: a voter the committee does not seat, or one that already voted at
// (round, step), changes nothing.
func (t *Tally[V]) Add(round, step int, voter simnet.NodeID, value V) bool {
	if !t.Seated(round, step, voter) {
		return false
	}
	i, ok := t.find(round, step)
	if !ok {
		t.books = slices.Insert(t.books, i, book[V]{
			round: round, step: step,
			voters: nodeSet{bits: make([]uint64, (t.n+63)/64)},
		})
	}
	b := &t.books[i]
	if !b.voters.add(voter) {
		return false
	}
	for j := range b.values {
		if b.values[j].Value == value {
			b.values[j].Count++
			return true
		}
	}
	b.values = append(b.values, Votes[V]{Value: value, Count: 1})
	return true
}

// Voters returns how many distinct voters voted at (round, step).
func (t *Tally[V]) Voters(round, step int) int {
	if i, ok := t.find(round, step); ok {
		return t.books[i].voters.count
	}
	return 0
}

// Count returns the votes value holds at (round, step).
func (t *Tally[V]) Count(round, step int, value V) int {
	for _, vc := range t.Values(round, step) {
		if vc.Value == value {
			return vc.Count
		}
	}
	return 0
}

// Values returns the (round, step) counts in the order their values first
// arrived. The slice is the tally's own: read it before the next Add.
func (t *Tally[V]) Values(round, step int) []Votes[V] {
	if i, ok := t.find(round, step); ok {
		return t.books[i].values
	}
	return nil
}

// Quorum returns the value that reached the (round, step) quorum, if one
// did. Two values can both reach it only when the quorum is at most half the
// voters; the first to arrive is reported then.
func (t *Tally[V]) Quorum(round, step int) (V, bool) {
	for _, vc := range t.Values(round, step) {
		if vc.Count >= t.Threshold(round, step) {
			return vc.Value, true
		}
	}
	var none V
	return none, false
}

// Prune drops every round below below.
func (t *Tally[V]) Prune(below int) {
	i, _ := slices.BinarySearchFunc(t.books, below, func(b book[V], r int) int { return cmp.Compare(b.round, r) })
	t.books = slices.Delete(t.books, 0, i)
}

// Clone returns an independent copy; values are copied by assignment.
func (t *Tally[V]) Clone() Tally[V] {
	c := *t
	c.books = slices.Clone(t.books)
	for i := range c.books {
		c.books[i].voters = c.books[i].voters.clone()
		c.books[i].values = slices.Clone(c.books[i].values)
	}
	return c
}

// nodeSet is a set of validator ids kept as a bitset plus its size. A vote
// tally only ever adds a voter and compares the count against a quorum, so
// that is all it offers. The zero value is the empty set.
type nodeSet struct {
	bits  []uint64
	count int
}

// add inserts id and reports whether it was new.
func (s *nodeSet) add(id simnet.NodeID) bool {
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	s.count++
	return true
}

// clone returns an independent copy.
func (s nodeSet) clone() nodeSet {
	return nodeSet{bits: append([]uint64(nil), s.bits...), count: s.count}
}

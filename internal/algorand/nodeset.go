package algorand

import "stabl/internal/simnet"

// nodeSet is a set of validator ids kept as a bitset plus its size. Vote
// tallies only ever add a voter and compare the count against a quorum, so
// that is all it offers. A nil *nodeSet is the empty set.
type nodeSet struct {
	bits  []uint64
	count int
}

// newNodeSet returns an empty set sized for ids below n; larger ids grow it.
func newNodeSet(n int) *nodeSet {
	return &nodeSet{bits: make([]uint64, (n+63)/64)}
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

// len returns the number of ids in the set.
func (s *nodeSet) len() int {
	if s == nil {
		return 0
	}
	return s.count
}

// clone returns an independent copy.
func (s *nodeSet) clone() *nodeSet {
	return &nodeSet{bits: append([]uint64(nil), s.bits...), count: s.count}
}

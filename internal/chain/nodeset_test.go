package chain

import (
	"testing"

	"stabl/internal/simnet"
)

func TestNodeSet(t *testing.T) {
	var s nodeSet
	if s.count != 0 {
		t.Fatal("zero set is not empty")
	}
	s.bits = make([]uint64, 1)
	for _, id := range []simnet.NodeID{0, 9, 63, 64, 500} { // past the presized word too
		if !s.add(id) {
			t.Fatalf("first add(%d) reported a duplicate", id)
		}
		if s.add(id) {
			t.Fatalf("second add(%d) reported a new member", id)
		}
	}
	if s.count != 5 {
		t.Fatalf("count = %d, want 5", s.count)
	}
	c := s.clone()
	c.add(7)
	if s.count != 5 || c.count != 6 || !s.add(7) {
		t.Fatal("clone shares storage with its source")
	}
}

package algorand

import (
	"testing"

	"stabl/internal/simnet"
)

func TestNodeSet(t *testing.T) {
	var empty *nodeSet
	if empty.len() != 0 {
		t.Fatal("nil set is not empty")
	}
	s := newNodeSet(10)
	for _, id := range []simnet.NodeID{0, 9, 63, 64, 500} { // past the presized word too
		if !s.add(id) {
			t.Fatalf("first add(%d) reported a duplicate", id)
		}
		if s.add(id) {
			t.Fatalf("second add(%d) reported a new member", id)
		}
	}
	if s.len() != 5 {
		t.Fatalf("len = %d, want 5", s.len())
	}
	c := s.clone()
	c.add(7)
	if s.len() != 5 || c.len() != 6 || !s.add(7) {
		t.Fatal("clone shares storage with its source")
	}
}

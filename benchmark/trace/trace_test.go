package trace

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("root", "")
	a := r.Begin("a", "x")
	time.Sleep(time.Millisecond)
	b := r.Begin("b", "x")
	time.Sleep(time.Millisecond)
	r.End(b)
	r.End(a)
	r.Add("c", "y", Now()-time.Microsecond, Now(), map[string]float64{"cell": 1})
	r.End(root)

	spans := r.Spans()
	if len(spans) != 4 || spans[1].Parent != root || spans[2].Parent != a || spans[3].Parent != root {
		t.Fatalf("span tree %+v", spans)
	}
	var sum time.Duration
	for i, self := range SelfTimes(spans) {
		if self < 0 {
			t.Errorf("span %s has negative self time %v", spans[i].Name, self)
		}
		sum += self
	}
	if sum != spans[root].Dur() {
		t.Errorf("self times sum to %v, root lasts %v", sum, spans[root].Dur())
	}
	if self := SelfByName(spans); len(self) != 4 || self["a"] != spans[a].Dur()-spans[b].Dur() {
		t.Errorf("SelfByName = %v", self)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", "")
	r.SetArgs(id, nil)
	r.End(id)
	r.Add("y", "", 0, 1, nil)
	if r.Spans() != nil {
		t.Error("a nil recorder recorded spans")
	}
}

package simnet

import (
	"testing"
	"time"

	"stabl/internal/sim"
)

func TestTracerReceivesLifecycleEvents(t *testing.T) {
	sched := sim.New(9)
	net := New(sched, Config{Latency: FixedLatency(time.Millisecond)})
	var events []TraceEvent
	net.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	net.AddNode(0, &echoHandler{})
	net.AddNode(1, &echoHandler{})
	net.StartAll()
	net.Halt(1)
	net.Restart(1)
	rule := net.Partition([]NodeID{0}, []NodeID{1})
	net.Heal(rule)
	net.SetExtraDelay(0, time.Second)
	net.SetExtraDelay(0, 0)

	kinds := make(map[TraceKind]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[TraceNodeStart] != 3 { // 2 boots + 1 reboot
		t.Fatalf("starts = %d", kinds[TraceNodeStart])
	}
	if kinds[TraceNodeHalt] != 1 {
		t.Fatalf("halts = %d", kinds[TraceNodeHalt])
	}
	if kinds[TracePartition] != 1 || kinds[TraceHeal] != 1 {
		t.Fatalf("partition/heal = %d/%d", kinds[TracePartition], kinds[TraceHeal])
	}
	if kinds[TraceDelay] != 2 {
		t.Fatalf("delay events = %d", kinds[TraceDelay])
	}
	// Reboot detail is distinguishable from boot.
	var reboot bool
	for _, ev := range events {
		if ev.Kind == TraceNodeStart && ev.Detail == "reboot" {
			reboot = true
		}
	}
	if !reboot {
		t.Fatal("no reboot event")
	}
}

func TestTracerConnEvents(t *testing.T) {
	sched := sim.New(9)
	net := New(sched, Config{Latency: FixedLatency(5 * time.Millisecond)})
	var events []TraceEvent
	net.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	net.AddNode(0, &echoHandler{})
	net.AddNode(1, &echoHandler{})
	net.ManageConns([]NodeID{0, 1}, defaultConnParams())
	net.StartAll()
	net.Halt(1)
	sched.RunUntil(40 * time.Second)
	net.Restart(1)
	sched.RunUntil(60 * time.Second)

	var downs, ups int
	for _, ev := range events {
		switch ev.Kind {
		case TraceConnDown:
			downs++
		case TraceConnUp:
			ups++
		}
	}
	if downs == 0 || ups == 0 {
		t.Fatalf("conn events: downs=%d ups=%d", downs, ups)
	}
}

func TestTraceKindString(t *testing.T) {
	if TraceNodeStart.String() != "node-start" || TraceKind(99).String() != "TraceKind(99)" {
		t.Fatal("TraceKind.String broken")
	}
}

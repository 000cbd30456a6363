package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"stabl/internal/observer"
	"stabl/internal/simnet"
)

// The fault plan's own mechanism, as it was before a plan lowered to a
// one-action scenario: kept here as the reference FuzzPlanLowering holds
// Config.Timeline to. The only edit is the slow fault's revert, which was a
// separate FastSignal and is a SlowSignal with delay zero now.

// refFaultCount resolves f for the plan: an explicit count wins; otherwise the
// paper's choice of f = t for crashes and f = t+1 for transient failures and
// partitions.
func (c Config) refFaultCount() int {
	if c.Fault.Count > 0 {
		return c.Fault.Count
	}
	t := c.System.Tolerance(c.Validators)
	switch c.Fault.Kind {
	case FaultCrash:
		return t
	case FaultTransient, FaultPartition, FaultSlow:
		return t + 1
	default:
		return 0
	}
}

// refFaultyNodes picks the f fault targets from the validators that serve no
// clients, exactly as the paper deploys ("faulty nodes never receive
// transactions they would otherwise lose").
func (c Config) refFaultyNodes() []simnet.NodeID {
	f := c.refFaultCount()
	if !c.Fault.Kind.NeedsNodes() || f == 0 {
		return nil
	}
	out := make([]simnet.NodeID, 0, f)
	for i := c.Validators - 1; i >= 0 && len(out) < f; i-- {
		out = append(out, simnet.NodeID(i))
	}
	return out
}

// refFaultScript translates the plan into primary actions.
func (c Config) refFaultScript(faulty []simnet.NodeID) []observer.Action {
	switch c.Fault.Kind {
	case FaultCrash:
		return []observer.Action{{At: c.Fault.InjectAt, Kill: faulty}}
	case FaultTransient:
		return []observer.Action{
			{At: c.Fault.InjectAt, Kill: faulty},
			{At: c.Fault.RecoverAt, Reboot: faulty},
		}
	case FaultPartition:
		others := make([]simnet.NodeID, 0, c.Validators-len(faulty))
		isFaulty := make(map[simnet.NodeID]bool, len(faulty))
		for _, id := range faulty {
			isFaulty[id] = true
		}
		for i := 0; i < c.Validators; i++ {
			if !isFaulty[simnet.NodeID(i)] {
				others = append(others, simnet.NodeID(i))
			}
		}
		return []observer.Action{
			{At: c.Fault.InjectAt, PartitionA: faulty, PartitionB: others},
			{At: c.Fault.RecoverAt, Heal: faulty},
		}
	case FaultSlow:
		return []observer.Action{
			{At: c.Fault.InjectAt, Slow: faulty, SlowBy: c.Fault.SlowBy},
			{At: c.Fault.RecoverAt, Slow: faulty},
		}
	default:
		return nil
	}
}

// nodeFaults are the four kinds that lower to a timeline.
var nodeFaults = []FaultKind{FaultCrash, FaultTransient, FaultPartition, FaultSlow}

// emptyToNil folds the one representational difference between the two
// mechanisms: the reference leaves a target list nil when f resolves to zero,
// the compiler resolves it to an empty one.
func emptyToNil(script []observer.Action) []observer.Action {
	out := append([]observer.Action(nil), script...)
	for i := range out {
		a := &out[i]
		for _, ids := range []*[]simnet.NodeID{&a.Kill, &a.Reboot, &a.PartitionA, &a.PartitionB, &a.Heal, &a.Slow, &a.Loss, &a.Jitter} {
			if len(*ids) == 0 {
				*ids = nil
			}
		}
	}
	return out
}

// FuzzPlanLowering holds the lowered timeline of a fault plan — script,
// target order, first-disrupt and last-revert instants — to the reference
// mechanism above, over every node-affecting kind, deployment size, explicit
// and default count, and outage length (zero included).
func FuzzPlanLowering(f *testing.F) {
	for kind := range nodeFaults {
		for _, n := range []int{4, 10, 31} {
			f.Add(kind, n, n/4, 0, 133_000, 133_000, 30_000) // the paper's default counts
			f.Add(kind, n, n/4, 1, 20_000, 40_000, 2_000)    // an explicit count
		}
		f.Add(kind, 10, 5, 0, 15_000, 0, 500)     // zero-length outage
		f.Add(kind, 10, 5, 6, 15_000, 5_000, 500) // more targets than client-free validators
	}
	f.Add(0, 3, 1, 0, 10_000, 10_000, 0) // tolerance 0: a crash of f = 0 nodes is refused
	f.Fuzz(func(t *testing.T, kind, validators, clients, count, injectMs, outageMs, slowMs int) {
		abs := func(v int) int {
			if v < 0 {
				return -(v + 1)
			}
			return v
		}
		validators = 1 + abs(validators-1)%64
		inject := time.Duration(1+abs(injectMs)%400_000) * time.Millisecond
		cfg := Config{
			System:     &stubSystem{},
			Validators: validators,
			Clients:    1 + abs(clients-1)%validators,
			Fault: FaultPlan{
				Kind:      nodeFaults[abs(kind)%len(nodeFaults)],
				Count:     abs(count) % (validators + 2),
				InjectAt:  inject,
				RecoverAt: inject + time.Duration(abs(outageMs)%400_000)*time.Millisecond,
				SlowBy:    time.Duration(abs(slowMs)%120_000) * time.Millisecond,
			},
		}.withDefaults()

		got, err := cfg.Timeline()
		if cfg.refFaultCount() == 0 {
			if err == nil || !strings.Contains(err.Error(), "Fault.Count = 0") {
				t.Fatalf("a plan of no faulty node: err = %v, want the Fault.Count error", err)
			}
			return
		}
		if pool := cfg.Validators - cfg.Clients; cfg.refFaultCount() > pool {
			if err == nil || !strings.Contains(err.Error(), "faulty nodes") {
				t.Fatalf("f = %d over a pool of %d: err = %v, want the faulty-nodes error", cfg.refFaultCount(), pool, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		faulty := cfg.refFaultyNodes()
		if want := cfg.refFaultScript(faulty); !reflect.DeepEqual(emptyToNil(got.Script), emptyToNil(want)) {
			t.Fatalf("script diverged from the reference:\n got: %+v\nwant: %+v", got.Script, want)
		}
		if !reflect.DeepEqual(got.Affected, faulty) {
			t.Fatalf("targets = %v, want %v (signalling order, n-1 downward)", got.Affected, faulty)
		}
		if got.FirstDisrupt != cfg.Fault.InjectAt {
			t.Fatalf("first disrupt = %v, want InjectAt = %v", got.FirstDisrupt, cfg.Fault.InjectAt)
		}
		wantRevert := time.Duration(0)
		if cfg.Fault.Kind.Recovers() {
			wantRevert = cfg.Fault.RecoverAt
		}
		if got.LastRevert != wantRevert {
			t.Fatalf("last revert = %v, want %v", got.LastRevert, wantRevert)
		}
		if len(got.Phases) != len(got.Script) {
			t.Fatalf("%d phases for %d actions", len(got.Phases), len(got.Script))
		}
	})
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"stabl/internal/algorand"
	"stabl/internal/aptos"
	"stabl/internal/avalanche"
	"stabl/internal/chain"
	"stabl/internal/overlay"
	"stabl/internal/redbelly"
	"stabl/internal/simnet"
	"stabl/internal/solana"
)

// restartCase halts validator k at halt, keeps it down for down and restarts
// it. With catchUp set, that first restart is shared by both runs, and the
// garbled halt comes lag after it, while k is still catching up.
type restartCase struct {
	k        simnet.NodeID
	halt     time.Duration
	down     time.Duration
	catchUp  bool
	lag      time.Duration
	downMore time.Duration
}

// restartCases draws a model's instants from seed: one in the first 100 ms
// (Redbelly has committed nothing then, so its restart reads its round), one
// mid-run and one while k catches up after a restart.
func restartCases(seed int64, n int) []restartCase {
	rng := rand.New(rand.NewSource(seed))
	ms := func(lo, hi int) time.Duration { return time.Duration(lo+rng.Intn(hi-lo)) * time.Millisecond }
	k := func() simnet.NodeID { return simnet.NodeID(rng.Intn(n)) }
	return []restartCase{
		{k: k(), halt: ms(1, 100), down: ms(0, 5000)},
		{k: k(), halt: ms(5000, 40000), down: ms(0, 20000)},
		{k: k(), halt: ms(5000, 40000), down: ms(1000, 10000), catchUp: true, lag: ms(1, 20), downMore: ms(0, 5000)},
	}
}

// TestRestartEquivalence holds every restart to the simnet.Handler contract:
// Start replaces the model's checkpoint struct, and BaseNode.Reset its
// nodeState, keeping only the embedded durable part. Two same-seed
// fault-free runs halt validator k at the same instant; one of them then
// overwrites every field of those structs but durable with garbage unlike
// what they hold (on a kadcast deployment, also the router's dupemap and
// stall levels, which Router.Reset clears; its sequence counter and stats
// survive). Both restart k and run 60 virtual seconds more, and their
// measurements must be equal: a restart that reads a field it does not carry
// reads garbage in one run only.
func TestRestartEquivalence(t *testing.T) {
	systems := []chain.System{algorand.Default(), aptos.Default(), avalanche.Default(), redbelly.Default(), solana.Default()}
	for i, sys := range systems {
		for j, c := range restartCases(int64(i+1), 10) {
			t.Run(fmt.Sprintf("%s/%d", sys.Name(), j), func(t *testing.T) {
				checkRestartEquivalence(t, Config{System: sys, Seed: int64(10 + i)}, c)
			})
		}
	}
	for j, c := range restartCases(6, 10) {
		t.Run(fmt.Sprintf("kadcast-Redbelly/%d", j), func(t *testing.T) {
			cfg := Config{System: redbelly.Default(), Seed: 16, Overlay: overlay.Config{Topology: "kadcast"}}
			checkRestartEquivalence(t, cfg, c)
		})
	}
}

func checkRestartEquivalence(t *testing.T, cfg Config, c restartCase) {
	halt, restart := c.halt, c.halt+c.down
	if c.catchUp {
		halt = restart + c.lag
		restart = halt + c.downMore
	}
	cfg.Duration = restart + 60*time.Second
	var results [2]*RunResult
	for run, garbled := range []bool{false, true} {
		e, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		if c.catchUp {
			e.RunUntil(c.halt)
			e.net.Halt(c.k)
			e.RunUntil(c.halt + c.down)
			e.net.Restart(c.k)
		}
		e.RunUntil(halt)
		if c.catchUp && !e.validators[c.k].Base().CatchingUp() {
			t.Fatalf("validator %v is not catching up at %v", c.k, halt)
		}
		e.net.Halt(c.k)
		if garbled {
			garbleRestartState(t, e, c.k)
		}
		e.RunUntil(restart)
		e.net.Restart(c.k)
		e.RunUntil(cfg.Duration)
		results[run] = e.Collect()
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		a, b := results[0], results[1]
		t.Fatalf("validator %v halted at %v, restarted at %v: garbled run differs: events %d vs %d, commits %d vs %d, max height %d vs %d, integrity %q vs %q",
			c.k, halt, restart, a.Events, b.Events, a.UniqueCommits, b.UniqueCommits, a.MaxHeight, b.MaxHeight, a.IntegrityErrors, b.IntegrityErrors)
	}
}

// garbleRestartState garbles validator k's state that a restart must not
// read: its model's and its BaseNode's checkpoint structs but durable, and
// the router's caches.
func garbleRestartState(t *testing.T, e *Experiment, k simnet.NodeID) {
	garbleVolatile(t, checkpointStruct(t, reflect.ValueOf(e.validators[k]).Elem()))
	base := e.validators[k].Base()
	garbleVolatile(t, checkpointStruct(t, reflect.ValueOf(base).Elem()))
	if r := base.Relay(); r != nil {
		rv := reflect.ValueOf(r).Elem()
		stall := rv.FieldByName("stall")
		for i := 0; i < stall.Len(); i++ {
			garble(t, settable(stall.Index(i)))
		}
		dupe := rv.FieldByName("dupe")
		garble(t, settable(dupe.FieldByName("zero")))
		garble(t, settable(dupe.FieldByName("head")))
		for _, name := range []string{"slots", "ring"} {
			keys := dupe.FieldByName(name)
			for i := 0; i < keys.Len(); i++ {
				if key := settable(keys.Index(i)); !key.IsZero() { // a zero slot is free
					garble(t, key)
				}
			}
		}
	}
}

// checkpointStruct returns the embedded struct of v that holds a durable
// part: a model's state or nodeState, a BaseNode's nodeState.
func checkpointStruct(t *testing.T, v reflect.Value) reflect.Value {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Anonymous && f.Type.Kind() == reflect.Struct {
			if _, ok := f.Type.FieldByName("durable"); ok {
				return settable(v.Field(i))
			}
		}
	}
	t.Fatalf("%v embeds no struct with a durable part", v.Type())
	return reflect.Value{}
}

// garbleVolatile garbles every field of the struct v except durable.
func garbleVolatile(t *testing.T, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name != "durable" {
			garble(t, settable(v.Field(i)))
		}
	}
}

// settable returns v, an addressable value, writable even when it is an
// unexported field.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// garble sets v, which must be settable, to non-zero garbage unlike what it
// holds: a number's complement, a bool's negation, a pointer to a new zero
// object, a one-element map or slice of garbage, a function that panics, a
// random stream of its own.
func garble(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(^v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(^v.Uint())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 12345.5)
	case reflect.String:
		v.SetString(v.String() + "garbage")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { panic("restart called a garbled function") }))
	case reflect.Interface:
		r := reflect.ValueOf(rand.New(rand.NewSource(-1)))
		if !r.Type().Implements(v.Type()) {
			t.Fatalf("garble: no garbage implements %v", v.Type())
		}
		v.Set(r)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		garble(t, key)
		garble(t, elem)
		m.SetMapIndex(key, elem)
		v.Set(m)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		garble(t, s.Index(0))
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			garble(t, settable(v.Index(i)))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			garble(t, settable(v.Field(i)))
		}
	default:
		t.Fatalf("garble: unhandled kind %v", v.Kind())
	}
}

package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"stabl/internal/algorand"
	"stabl/internal/aptos"
	"stabl/internal/avalanche"
	"stabl/internal/chain"
	"stabl/internal/metrics"
	"stabl/internal/overlay"
	"stabl/internal/redbelly"
	"stabl/internal/solana"
)

// ownedPointers are the pointee types a clone rebuilds as fresh objects: no
// queued closure holds them, so two checkpoints of one instant hold distinct
// pointers to equal contents. Every other pointer inside a checkpoint is
// identity-preserved (tickers, contexts, RNG streams, round states, pooled
// deliveries) or shared immutable payload, and must be the same pointer.
var ownedPointers = map[string]bool{
	"*client.pendingRead": true,
	"*algorand.nodeSet":   true,
}

// render writes v's state in a canonical text form, unexported fields
// included: two values render alike exactly when they hold the same state.
// Slices render their length and elements (capacity and nil-versus-empty are
// storage, not state), maps their entries in sorted order, closures and
// non-owned pointers their address.
func render(w *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		w.WriteString("nil")
	case reflect.Pointer:
		if !v.IsNil() && ownedPointers[v.Type().String()] {
			w.WriteByte('&')
			render(w, v.Elem())
			return
		}
		fmt.Fprintf(w, "%#x", v.Pointer())
	case reflect.Func:
		p := v.Pointer() // the code pointer
		if v.CanAddr() { // the closure object
			p = uintptr(*(*unsafe.Pointer)(v.Addr().UnsafePointer()))
		}
		fmt.Fprintf(w, "func@%#x", p)
	case reflect.Chan, reflect.UnsafePointer:
		fmt.Fprintf(w, "%#x", v.Pointer())
	case reflect.Interface:
		if !v.IsNil() {
			fmt.Fprintf(w, "(%v)", v.Elem().Type())
		}
		render(w, v.Elem())
	case reflect.Struct:
		w.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			w.WriteString(v.Type().Field(i).Name + ":")
			render(w, v.Field(i))
			w.WriteByte(' ')
		}
		w.WriteByte('}')
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "%d[", v.Len())
		for i := 0; i < v.Len(); i++ {
			render(w, v.Index(i))
			w.WriteByte(' ')
		}
		w.WriteByte(']')
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var e strings.Builder
			render(&e, it.Key())
			e.WriteByte('=')
			render(&e, it.Value())
			entries = append(entries, e.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(w, "map%v", entries)
	case reflect.Bool:
		fmt.Fprint(w, v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Float32, reflect.Float64:
		fmt.Fprint(w, v.Float())
	default:
		switch {
		case v.CanInt():
			fmt.Fprint(w, v.Int())
		case v.CanUint():
			fmt.Fprint(w, v.Uint())
		default:
			panic(fmt.Sprintf("render: unhandled kind %v", v.Kind()))
		}
	}
}

// renderForkPoint renders a whole-experiment checkpoint, one string per
// part. The parts themselves are fresh objects by construction (each
// Snapshot returns a new one), so their contents are rendered, not their
// addresses.
func renderForkPoint(t *testing.T, f *ForkPoint) []string {
	parts := reflect.ValueOf(f.state)
	out := make([]string, parts.Len())
	for i := range out {
		p := parts.Index(i).Elem()
		if p.Kind() != reflect.Pointer {
			t.Fatalf("part %d: checkpoint is a %v, want a pointer", i, p.Type())
		}
		var w strings.Builder
		fmt.Fprintf(&w, "part %d (%v) ", i, p.Type())
		render(&w, p.Elem())
		out[i] = w.String()
	}
	return out
}

// requireSame fails with the neighbourhood of the first difference.
func requireSame(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d parts", what, len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a == b {
			continue
		}
		at := 0
		for at < len(a) && at < len(b) && a[at] == b[at] {
			at++
		}
		from := max(0, at-160)
		t.Fatalf("%s: %.60s… differs at byte %d:\nwant …%s\ngot  …%s",
			what, a, at, a[from:min(len(a), at+80)], b[from:min(len(b), at+80)])
	}
}

// TestCheckpointRoundTrip checks every Forkable's clone directly instead of
// through the fork goldens. Checkpoints a and b are taken at one mid-fault
// instant and rendered; the run finishes. Rendering b again must give the
// same text — a clone that shares a written container with live state does
// not. Then a rewinds the run and a third checkpoint c must render like b — a
// Restore that drops a field leaves its end-of-run value in c. Continuations
// from b and c must finally measure exactly what the first pass did.
func TestCheckpointRoundTrip(t *testing.T) {
	base := func(sys chain.System, fault FaultKind) Config {
		return Config{
			System:   sys,
			Seed:     42,
			Duration: 60 * time.Second,
			Fault:    FaultPlan{Kind: fault, InjectAt: 20 * time.Second, RecoverAt: 40 * time.Second, SlowBy: 2 * time.Second},
		}
	}
	type tcase struct {
		name string
		cfg  func() Config
	}
	// The fault kinds between them write every network table: liveness and
	// incarnations (transient), partition rules, per-interface delays.
	var cases []tcase
	for _, c := range []struct {
		sys   chain.System
		fault FaultKind
	}{
		{algorand.Default(), FaultTransient},
		{aptos.Default(), FaultPartition},
		{avalanche.Default(), FaultSlow},
		{redbelly.Default(), FaultTransient},
		{solana.Default(), FaultTransient},
	} {
		c := c
		cases = append(cases, tcase{c.sys.Name() + "/" + c.fault.String(), func() Config { return base(c.sys, c.fault) }})
	}
	cases = append(cases, tcase{"Redbelly/flows+reads+recorder", func() Config {
		cfg := base(redbelly.Default(), FaultTransient)
		cfg.Clients, cfg.Flows, cfg.RetryAfter = 12, 3, 5*time.Second
		cfg.Fanout = 2 // half-answered confirmation words and armed retries at the fork instant
		cfg.ReadRate = 2
		cfg.Metrics = metrics.NewRecorder(0)
		return cfg
	}})
	// Routers inside the checkpoint: sequence numbers, dupemap rings and
	// stall levels, with relay flights queued.
	cases = append(cases, tcase{"Algorand/kadcast", func() Config {
		cfg := base(algorand.Default(), FaultTransient)
		cfg.Validators = 16
		cfg.Overlay = overlay.Config{Topology: overlay.KindKadcast}
		return cfg
	}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp, err := Build(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			exp.Start()
			exp.RunUntil(30 * time.Second)
			a, err := exp.Fork()
			if err != nil {
				t.Fatal(err)
			}
			b, _ := exp.Fork()
			want := renderForkPoint(t, b)
			requireSame(t, "two checkpoints of one instant", want, renderForkPoint(t, a))
			finish := func() *RunResult {
				exp.RunUntil(exp.Config().Duration)
				return exp.Collect()
			}
			first := finish()
			requireSame(t, "checkpoint b before and after the run (a clone shares storage with live state)", want, renderForkPoint(t, b))
			a.Rewind()
			c, _ := exp.Fork()
			requireSame(t, "checkpoint b and checkpoint c taken after a.Rewind", want, renderForkPoint(t, c))
			b.Rewind()
			fromB := finish()
			c.Rewind()
			fromC := finish()
			for name, res := range map[string]*RunResult{"b": fromB, "c": fromC} {
				if !reflect.DeepEqual(first, res) {
					t.Errorf("continuation from %s diverges from the first pass: %d commits, %d events, last commit %v; want %d, %d, %v",
						name, res.UniqueCommits, res.Events, res.LastCommitAt, first.UniqueCommits, first.Events, first.LastCommitAt)
				}
			}
			if first.UniqueCommits == 0 {
				t.Fatal("the run committed nothing; the test exercises no state")
			}
		})
	}
}

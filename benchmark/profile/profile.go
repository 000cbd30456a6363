// Package profile attributes a CPU profile's self time to the module's
// layers. It decodes the gzipped profile.proto that runtime/pprof writes
// with a small reader of its own — sample → leaf location → function →
// package — so the benchmark needs no dependency beyond the standard
// library.
package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// Sample is one stack of a decoded profile: function names leaf first, and
// the sample's weight (CPU nanoseconds for a CPU profile).
type Sample struct {
	Stack []string
	Value int64
}

// Parse decodes a gzipped profile.proto as written by runtime/pprof.
func Parse(data []byte) ([]Sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Field numbers are those of github.com/google/pprof's profile.proto.
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, innermost inline first
		funcNames = make(map[uint64]uint64)   // function id -> string table index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					s.locs = appendVarints(s.locs, v, b)
				case 2: // value: keep the last one (cpu/nanoseconds)
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Profile.function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out = append(out, Sample{Stack: stack, Value: s.value})
	}
	return out, nil
}

// fields walks one protobuf message, calling visit with each field's number
// and its varint value (wire types 0, 1, 5) or its bytes (wire type 2).
func fields(b []byte, visit func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return fmt.Errorf("profile: truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return fmt.Errorf("profile: truncated varint in field %d", num)
			}
			b = b[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return fmt.Errorf("profile: truncated fixed field %d", num)
			}
			b = b[size:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: truncated bytes in field %d", num)
			}
			if err := visit(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: the packed
// encoding carries them in packed, the unpacked one in v.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// Layers are the attribution buckets, in report order. Every sample lands in
// exactly one, so the shares sum to 1.
var Layers = []string{
	"sim", "simnet", "overlay", "chain", "system", "client", "committee",
	"metrics", "snapshot", "runtime_gc", "runtime_other", "other",
}

// systemPkgs are the five chain-model packages, reported together as
// "system": which of them runs depends on the workload, not on the layer.
var systemPkgs = map[string]bool{
	"algorand": true, "aptos": true, "avalanche": true, "redbelly": true, "solana": true,
}

// gcRoots prefix the runtime functions under which all garbage-collection
// work runs: background mark workers, mutator assists, sweeping and
// scavenging. Prefixes also match their closures and variants (gcDrainN,
// gcBgMarkWorker.func2), which is what a stack cut at systemstack shows.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone",
	"runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim",
}

// Package returns the import path a profile function name belongs to:
// "stabl/internal/sim.(*Scheduler).Step" is in "stabl/internal/sim". Type
// arguments are cut first ("slices.SortFunc[go.shape.…]"): they may hold
// slashes and dots of their own. Assembly routines the runtime calls
// (aeshashbody, memeqbody) carry no package and return "".
func Package(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// Layer names the bucket of one sample by its leaf function, so the shares
// are self time: a map probe, a memmove or an allocation made by a layer
// lands in the runtime's bucket, not the layer's. A runtime leaf is garbage
// collection when a GC root is anywhere on its stack.
func Layer(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := Package(stack[0])
	// internal/runtime/maps is the map implementation since go1.24.
	if pkg == "" || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		for _, fn := range stack {
			for _, root := range gcRoots {
				if strings.HasPrefix(fn, root) {
					return "runtime_gc"
				}
			}
		}
		return "runtime_other"
	}
	const prefix = "stabl/internal/"
	if !strings.HasPrefix(pkg, prefix) {
		return "other"
	}
	switch name := pkg[len(prefix):]; {
	case systemPkgs[name]:
		return "system"
	case name == "workload":
		// The workload generators run inside the clients' events.
		return "client"
	case name == "sim", name == "simnet", name == "overlay", name == "chain",
		name == "client", name == "committee", name == "metrics", name == "snapshot":
		return name
	}
	return "other"
}

// Shares returns each layer's share of the profile's total self time.
func Shares(samples []Sample) map[string]float64 {
	sums := make(map[string]int64)
	var total int64
	for _, s := range samples {
		sums[Layer(s.Stack)] += s.Value
		total += s.Value
	}
	out := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		if total > 0 {
			out[l] = float64(sums[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

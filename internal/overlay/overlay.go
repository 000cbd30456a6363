// Package overlay implements deterministic structured gossip overlays for
// the simulated network: kadcast-style XOR-bucketed broadcast trees,
// ring-with-shortcuts and random d-regular graphs, all derived purely from
// (seed, nodeIDs). A per-node Router relays chain broadcasts along the
// overlay with bounded duplicate suppression (dupemap) and deterministic
// per-peer stall detection, so per-tx dissemination drops from O(n) sends at
// the origin to O(fanout·log n) while every run stays byte-identical across
// worker counts.
//
// The overlay owns no RNG streams: topologies are built from a dedicated
// local generator at construction time and routing decisions (delegate
// rotation) come from pure hashes of (origin, seq, bucket, self), so an
// experiment with the overlay disabled replays bit-for-bit against a kernel
// that never linked this package.
package overlay

import (
	"fmt"
	"strings"
)

// Topology kinds accepted by Config.Topology.
const (
	// KindKadcast is the XOR-bucketed broadcast tree of the Kadcast
	// protocol: each node keeps the BucketK closest peers per distance
	// bucket and forwards a broadcast to Fanout delegates per bucket below
	// the relay's height, giving O(Fanout·log n) sends per hop and — while
	// the stall model drops no bucket — exact coverage by induction over the
	// key trie.
	KindKadcast = "kadcast"
	// KindRegular is a random d-regular graph: the union of ⌈Fanout/2⌉
	// seed-derived Hamiltonian cycles, flooded with duplicate suppression.
	KindRegular = "regular"
	// KindRing is a ring over the sorted node ids with power-of-two
	// shortcut chords (1, 2, 4, ... 2^Fanout), flooded with duplicate
	// suppression.
	KindRing = "ring"
)

// Kinds lists the valid topology names in canonical order.
func Kinds() []string { return []string{KindKadcast, KindRegular, KindRing} }

// ParseKind validates a topology name, returning the canonical name or an
// error that enumerates the valid set (the ParseFaultKind convention).
func ParseKind(name string) (string, error) {
	for _, k := range Kinds() {
		if name == k {
			return k, nil
		}
	}
	return "", fmt.Errorf("overlay: unknown topology %q (valid: %s)", name, strings.Join(Kinds(), "|"))
}

// Defaults for zero Config fields. Fanout and BucketK make a 10k-node kadcast
// broadcast cost ~Fanout·log2(n) sends at the origin. StallThreshold and
// DrainRate keep the stall model dormant only while a peer is charged slower
// than it drains: the seed-42 n=10 and n=16 runs of Algorand, Aptos, Avalanche
// and Redbelly skip and drop nothing, but Solana's ~640 broadcasts a second
// skip 0.86 M sends and drop 0.57 M bucket relays at n=10, and a fault-free
// n=512 Algorand run whose clients submit in bursts of 128 skips 4.6 M sends
// and drops 1.68 M of 4.97 M relays. Coverage is then no longer exact
// (DESIGN.md "Coverage is not exact under load").
const (
	DefaultFanout         = 4
	DefaultBucketK        = 8
	DefaultDupeCap        = 4096
	DefaultStallThreshold = 64
	DefaultDrainRate      = 256 // modeled relay drains per peer per second
)

// Config selects and parameterizes an overlay. The zero value (empty
// Topology) disables the overlay entirely: chains broadcast over the legacy
// full mesh and no Router is constructed.
type Config struct {
	// Topology is one of Kinds(), or empty for the legacy full mesh.
	Topology string `json:"topology,omitempty"`
	// Fanout is the per-bucket delegate count (kadcast), the number of
	// power-of-two shortcut chords (ring) or the target degree (regular).
	Fanout int `json:"fanout,omitempty"`
	// BucketK bounds each kadcast bucket view to the K closest peers by
	// XOR distance. Coverage stays exact for any K >= 1.
	BucketK int `json:"bucketK,omitempty"`
	// DupeCap bounds the duplicate-suppression cache per node; the oldest
	// entry is evicted FIFO beyond it.
	DupeCap int `json:"dupeCap,omitempty"`
	// StallThreshold is the modeled outstanding-relay level at which a
	// peer is considered stalled and deterministically skipped.
	StallThreshold int `json:"stallThreshold,omitempty"`
	// DrainRate is how fast a peer's modeled outstanding-relay level
	// decays, in sends per virtual second.
	DrainRate float64 `json:"drainRate,omitempty"`
}

// Enabled reports whether an overlay topology is configured.
func (c Config) Enabled() bool { return c.Topology != "" }

// WithDefaults fills zero tuning fields with the package defaults. The
// Topology itself is never defaulted: empty stays disabled.
func (c Config) WithDefaults() Config {
	if !c.Enabled() {
		return c
	}
	if c.Fanout == 0 {
		c.Fanout = DefaultFanout
	}
	if c.BucketK == 0 {
		c.BucketK = DefaultBucketK
	}
	if c.DupeCap == 0 {
		c.DupeCap = DefaultDupeCap
	}
	if c.StallThreshold == 0 {
		c.StallThreshold = DefaultStallThreshold
	}
	if c.DrainRate == 0 {
		c.DrainRate = DefaultDrainRate
	}
	return c
}

// Validate checks the configuration. A disabled overlay must be entirely
// zero; an enabled one needs a known topology and non-negative tuning.
func (c Config) Validate() error {
	if !c.Enabled() {
		if c.Fanout != 0 || c.BucketK != 0 || c.DupeCap != 0 || c.StallThreshold != 0 || c.DrainRate != 0 {
			return fmt.Errorf("overlay: tuning fields set without a topology (set topology to one of %s)", strings.Join(Kinds(), "|"))
		}
		return nil
	}
	if _, err := ParseKind(c.Topology); err != nil {
		return err
	}
	if c.Fanout < 0 || c.BucketK < 0 || c.DupeCap < 0 || c.StallThreshold < 0 || c.DrainRate < 0 {
		return fmt.Errorf("overlay: negative tuning field in %+v", c)
	}
	return nil
}

// Stats counts overlay routing activity. All fields are commutative sums,
// so per-node stats can be added in any order.
type Stats struct {
	// Origins counts broadcasts originated through the overlay.
	Origins uint64 `json:"origins,omitempty"`
	// OriginSends counts envelopes sent by origins (first hop).
	OriginSends uint64 `json:"originSends,omitempty"`
	// Relayed counts envelopes re-sent by intermediate relays.
	Relayed uint64 `json:"relayed,omitempty"`
	// Duplicates counts received envelopes suppressed by the dupemap.
	Duplicates uint64 `json:"duplicates,omitempty"`
	// StallSkips counts per-peer sends skipped because the peer's modeled
	// outstanding-relay level exceeded the stall threshold.
	StallSkips uint64 `json:"stallSkips,omitempty"`
	// StallDrops counts kadcast buckets whose relay was dropped entirely
	// because every candidate delegate was stalled.
	StallDrops uint64 `json:"stallDrops,omitempty"`
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Origins += o.Origins
	s.OriginSends += o.OriginSends
	s.Relayed += o.Relayed
	s.Duplicates += o.Duplicates
	s.StallSkips += o.StallSkips
	s.StallDrops += o.StallDrops
}

// SendsPerBroadcast is the average first-hop fanout paid by a broadcast
// origin — the per-tx message-complexity witness. A full mesh pays exactly
// n-1; kadcast pays O(Fanout·log n).
func (s Stats) SendsPerBroadcast() float64 {
	if s.Origins == 0 {
		return 0
	}
	return float64(s.OriginSends) / float64(s.Origins)
}

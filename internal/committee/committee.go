// Package committee implements stake-weighted deterministic sortition: the
// reduction step that makes Algorand-style rounds O(committee) instead of
// O(n). A Table holds the provisioner stake distribution; Extract draws a
// per-(round, step) committee by recursively hashing a public seed with the
// round/step/seat coordinates and mapping each hash onto the cumulative
// stake line (the dusk-blockchain committee/extractor design, SNIPPETS.md).
//
// Extraction is a pure function of (seed, stakes, round, step, size): no
// scheduler RNG stream is consumed, so committee membership is identical
// across runs, worker counts, and fork/replay — the determinism invariant
// the seed-42 goldens pin. A Schedule memoizes extractions so the n
// validators of one run share a single committee computation per step.
package committee

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Table is an immutable stake distribution over members 0..n-1. Member i
// owns Stakes[i] units of the cumulative stake line; members with zero
// stake are never extracted.
type Table struct {
	stakes []uint64
	total  uint64
}

// NewTable builds a stake table. A nil or empty stakes slice of length n is
// invalid; use Uniform for the common equal-stake case.
func NewTable(stakes []uint64) (*Table, error) {
	if len(stakes) == 0 {
		return nil, fmt.Errorf("committee: empty stake table")
	}
	t := &Table{stakes: append([]uint64(nil), stakes...)}
	for i, s := range stakes {
		if s > (1<<62)/uint64(len(stakes)) {
			return nil, fmt.Errorf("committee: stake %d of member %d overflows the stake line", s, i)
		}
		t.total += s
	}
	if t.total == 0 {
		return nil, fmt.Errorf("committee: all stakes are zero")
	}
	return t, nil
}

// Uniform builds the equal-stake table over n members: every member owns
// one unit, so sortition reduces to uniform sampling without replacement.
func Uniform(n int) *Table {
	stakes := make([]uint64, n)
	for i := range stakes {
		stakes[i] = 1
	}
	t, err := NewTable(stakes)
	if err != nil {
		panic(err) // n <= 0 is a caller bug
	}
	return t
}

// Size returns the number of members in the table.
func (t *Table) Size() int { return len(t.stakes) }

// TotalStake returns the summed stake of all members.
func (t *Table) TotalStake() uint64 { return t.total }

// Committee is one extracted committee: an immutable membership set over
// the table's members. Membership checks are O(1); Members returns the
// sorted member list so iteration order is deterministic.
type Committee struct {
	members []int // sorted ascending
	order   []int // extraction (seat/priority) order
	bits    []uint64
}

// IsMember reports whether table member i sits on this committee.
func (c *Committee) IsMember(i int) bool {
	if i < 0 || i>>6 >= len(c.bits) {
		return false
	}
	return c.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Members returns the committee's members in ascending order. The slice is
// shared; callers must not mutate it.
func (c *Committee) Members() []int { return c.members }

// Order returns the members in extraction order: seat 0 holds the highest
// sortition priority. Proposer selection ranks candidates by seat. The
// slice is shared; callers must not mutate it.
func (c *Committee) Order() []int { return c.order }

// Rank returns member i's seat in the extraction order, or -1 when i is
// not on the committee.
func (c *Committee) Rank(i int) int {
	if !c.IsMember(i) {
		return -1
	}
	for seat, m := range c.order {
		if m == i {
			return seat
		}
	}
	return -1
}

// Size returns the number of committee members.
func (c *Committee) Size() int { return len(c.members) }

// Quorum returns the vote threshold for this committee: floor(2s/3)+1 of
// its s seats. With up to one fifth of total stake crashed (the paper's
// fault envelope) an extracted committee still clears this bar, while two
// disjoint quorums always intersect in at least one honest member.
func (c *Committee) Quorum() int { return 2*len(c.members)/3 + 1 }

// Evidence returns the smaller threshold at which observing committee
// members ahead of the local step is proof the local node fell behind:
// floor(s/3)+1 seats cannot all be faulty under the tolerance envelope.
func (c *Committee) Evidence() int { return len(c.members)/3 + 1 }

// Quorum is the full-membership vote threshold used when sortition is off:
// n members tolerating t failures need n-t matching votes. Routing the
// chains' quorum arithmetic through this helper keeps the committee and
// full-mesh code paths comparable side by side.
func Quorum(n, t int) int { return n - t }

// Extract draws the (round, step) committee of the given size from the
// table. Seats are extracted one at a time: seat k's hash is mapped onto
// the cumulative stake line with already-seated members removed, so the
// committee holds `size` distinct members (or every staked member, when
// size reaches the table). Extraction is pure — same inputs, same
// committee — and costs O(size * log n) via a Fenwick tree over stakes.
func (t *Table) Extract(seed uint64, round uint64, step uint8, size int) *Committee {
	n := len(t.stakes)
	if size <= 0 || size >= n {
		return t.everyone()
	}
	fen := newFenwick(t.stakes)
	remaining := t.total
	members := make([]int, 0, size)
	var buf [21]byte
	binary.BigEndian.PutUint64(buf[0:8], seed)
	binary.BigEndian.PutUint64(buf[8:16], round)
	buf[16] = step
	for seat := 0; seat < size && remaining > 0; seat++ {
		binary.BigEndian.PutUint32(buf[17:21], uint32(seat))
		sum := sha256.Sum256(buf[:])
		target := binary.BigEndian.Uint64(sum[:8]) % remaining
		member := fen.find(target)
		stake := t.stakes[member]
		fen.add(member, -int64(stake))
		remaining -= stake
		members = append(members, member)
	}
	return newCommittee(n, members)
}

func (t *Table) everyone() *Committee {
	members := make([]int, 0, len(t.stakes))
	for i, s := range t.stakes {
		if s > 0 {
			members = append(members, i)
		}
	}
	return newCommittee(len(t.stakes), members)
}

func newCommittee(n int, members []int) *Committee {
	c := &Committee{order: members, bits: make([]uint64, (n+63)/64)}
	for _, m := range members {
		c.bits[m>>6] |= 1 << (uint(m) & 63)
	}
	// Recover ascending order from the bitset instead of sorting: the
	// extraction order is part of the hash stream, not the public API.
	c.members = make([]int, 0, len(members))
	for w, word := range c.bits {
		for word != 0 {
			c.members = append(c.members, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return c
}

// fenwick is a binary indexed tree over member stakes supporting point
// updates and "find the member owning stake unit k" in O(log n).
type fenwick struct {
	tree []int64 // 1-indexed
}

func newFenwick(stakes []uint64) *fenwick {
	f := &fenwick{tree: make([]int64, len(stakes)+1)}
	for i, s := range stakes {
		f.tree[i+1] += int64(s)
		if j := i + 1 + ((i + 1) & -(i + 1)); j < len(f.tree) {
			f.tree[j] += f.tree[i+1]
		}
	}
	return f
}

func (f *fenwick) add(i int, delta int64) {
	for j := i + 1; j < len(f.tree); j += j & -j {
		f.tree[j] += delta
	}
}

// find returns the smallest member index whose cumulative stake prefix
// exceeds target (i.e. the owner of stake unit `target` on the remaining
// stake line).
func (f *fenwick) find(target uint64) int {
	idx := 0
	rem := int64(target)
	half := 1
	for half<<1 < len(f.tree) {
		half <<= 1
	}
	for ; half > 0; half >>= 1 {
		if next := idx + half; next < len(f.tree) && f.tree[next] <= rem {
			idx = next
			rem -= f.tree[next]
		}
	}
	return idx // 0-indexed member
}

// Schedule memoizes committee extraction for one run: all validators share
// the same (round, step) committees, so the first asker pays the O(size
// log n) extraction and the rest hit the cache. The mutex makes the cache
// safe to share concurrently — by one run's validators in different
// partitions under the parallel kernel, and by campaign workers running
// separate experiments off one system instance; extraction itself is pure,
// so cache hits, misses and evictions return identical committees
// regardless of interleaving.
type Schedule struct {
	table *Table
	seed  uint64
	size  int

	mu    sync.Mutex
	cache map[scheduleKey]*Committee
	order []scheduleKey // FIFO eviction so long runs stay bounded
}

type scheduleKey struct {
	round uint64
	step  uint8
}

// scheduleWindow bounds the memo: a round needs at most a handful of live
// steps, and rounds older than the slowest straggler are never re-asked.
const scheduleWindow = 256

// NewSchedule builds the shared extraction cache for one deployment.
func NewSchedule(table *Table, seed uint64, size int) *Schedule {
	return &Schedule{table: table, seed: seed, size: size, cache: make(map[scheduleKey]*Committee)}
}

// Size returns the configured committee size.
func (s *Schedule) Size() int { return s.size }

// Committee returns the memoized (round, step) committee.
func (s *Schedule) Committee(round uint64, step uint8) *Committee {
	key := scheduleKey{round: round, step: step}
	s.mu.Lock()         //stabl:nodet goroutine-purity -- shared by one run's validators in different partitions (SimWorkers) and by suite workers' runs
	defer s.mu.Unlock() //stabl:nodet goroutine-purity -- see above; extraction is pure, so whichever caller fills an entry every caller gets the identical committee
	if c, ok := s.cache[key]; ok {
		return c
	}
	c := s.table.Extract(s.seed, round, step, s.size)
	s.cache[key] = c
	s.order = append(s.order, key)
	if len(s.order) > scheduleWindow {
		delete(s.cache, s.order[0])
		s.order = s.order[1:]
	}
	return c
}

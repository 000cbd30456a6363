// Package snapshotfields seeds the snapshot-fields analyzer: a Forkable
// struct whose mutable fields must all be seen by Snapshot and Restore.
// Fields covered by both methods, fields only written during construction
// (including construction behind an interface-returning constructor), and
// types without the Forkable shape all stay silent; a field the protocol
// mutates but checkpointing never touches is the bug the analyzer exists
// for.
package snapshotfields

// Forkable mirrors the snapshot.Forkable shape without importing it.
type Forkable interface {
	Snapshot() any
	Restore(any)
}

type boxState struct {
	covered   int
	noSnap    int
	noRestore int
}

type box struct {
	covered   int // copied by Snapshot, written back by Restore: silent
	noSnap    int // want "never referenced by (box).Snapshot;"
	noRestore int // want "never referenced by (box).Restore;"
	ghost     int // want "never referenced by (box).Snapshot or Restore;"
	immutable int // written only during construction: silent
	//stabl:nodet snapshot-fields -- volatile cache, rebuilt on demand; a fork may lose it
	cache map[int]int
	//stabl:nodet wallclock -- names the wrong analyzer, so snapshot-fields still reports
	wrongScope int // want "never referenced by (box).Snapshot or Restore;"
}

// NewBox is a signature-visible constructor: its writes are initialization.
func NewBox() *box {
	b := &box{covered: 1}
	b.immutable = 7
	b.cache = make(map[int]int)
	return b
}

// NewHidden returns the concrete type behind an interface. The analyzer
// still treats its writes as construction: the composite literal marks it
// as a creator of box.
func NewHidden() Forkable {
	b := &box{}
	b.covered = 1
	b.immutable = 2
	b.cache = make(map[int]int)
	return b
}

// advance is the protocol: it mutates state after construction.
func (b *box) advance() {
	b.covered++
	b.noSnap++
	b.noRestore++
	b.ghost++
	b.wrongScope++
	b.cache[b.covered] = b.noSnap
}

// Snapshot copies covered and noRestore — noSnap, ghost and wrongScope are
// the seeded gaps.
func (b *box) Snapshot() any {
	return &boxState{covered: b.covered, noRestore: b.noRestore}
}

// Restore delegates to a helper: references through transitive same-package
// callees count.
func (b *box) Restore(st any) {
	b.restoreFrom(st.(*boxState))
}

func (b *box) restoreFrom(s *boxState) {
	b.covered = s.covered
	b.noSnap = s.noSnap
}

// scratch has no Restore method, so it is not Forkable-shaped and its
// mutated, uncopied field is nobody's business.
type scratch struct{ n int }

// Snapshot alone does not make a type Forkable.
func (s *scratch) Snapshot() any { return s.n }

func (s *scratch) bump() { s.n++ }

// crateState is the embedded-state pattern: crate's mutable fields live in
// one struct that Snapshot and Restore copy whole, so a scalar inside it
// needs no mention by name.
type crateState struct {
	count int // inside the embedded state, covered by the struct copy: silent
	tags  map[int]int
}

func (s *crateState) clone() *crateState {
	c := *s
	c.tags = make(map[int]int, len(s.tags))
	for k, v := range s.tags {
		c.tags[k] = v
	}
	return &c
}

type crate struct {
	id int // written only during construction: silent
	crateState
	stray int // want "never referenced by (crate).Snapshot or Restore; a fork silently loses its state — move it into `crateState`"
}

func NewCrate(id int) *crate {
	return &crate{id: id, crateState: crateState{tags: make(map[int]int)}}
}

func (c *crate) advance() {
	c.count++
	c.tags[c.count] = c.id
	c.stray++
}

func (c *crate) Snapshot() any { return c.crateState.clone() }

func (c *crate) Restore(st any) { c.crateState = *st.(*crateState).clone() }

// tally carries its own Snapshot/Restore, as a state shared by two holders
// does. It is Forkable-shaped itself: bump writes n through the *tally
// receiver, and the whole-struct copies in both methods cover it.
type tally struct {
	n   int // mutated, never named by Snapshot/Restore, covered by `c := *s` and `*s = …`: silent
	log []int
}

func (s *tally) bump() {
	s.n++
	s.log = append(s.log, s.n)
}

func (s *tally) Snapshot() any {
	c := *s
	c.log = append([]int(nil), s.log...)
	return &c
}

func (s *tally) Restore(st any) {
	*s = *st.(*tally)
	s.log = append([]int(nil), s.log...)
}

// holder gets Snapshot and Restore by promotion from tally; they count as its
// own, so holder is checked — and they cannot see a field declared beside
// the embedded state.
type holder struct {
	tally
	extra int // want "never referenced by (holder).Snapshot or Restore; a fork silently loses its state — move it into `tally`"
}

func (h *holder) poke() {
	h.bump()
	h.extra++
}

package search

import (
	"reflect"
	"slices"

	"ralin/internal/core"
)

// stepCacheCap bounds the transitions one table holds: a runaway stream of
// ever-new histories stops filling it past the cap (lookups continue; new
// transitions are just stepped live).
const stepCacheCap = 1 << 18

// contentCap bounds the distinct label contents one table keeps across
// checks: a table holding contentCap contents restarts — contents and
// transitions alike — at the next check's ID pass.
const contentCap = 1 << 16

// stepTable is a searcher's state numbering, its label-content identity and
// its memo of the specification's transition function. stateID gives every
// state the searcher reaches a dense ID by its canonical key
// (core.StateKeyer.StateKey); state sets, memo keys and transitions work on
// those IDs instead of strings. Each check's ID pass (contentIDs) gives every
// plan label a content ID, shared exactly by the labels that agree on every
// field a transition may read — Object, Method, Kind, TS, Args and Ret;
// core.Spec's contract rules out ID, Origin and GenSeq. Twin classes
// (twins.go) and transitions both key on it. A transition maps (source state
// ID, content ID) to the successors' states and state IDs, in raw emission
// order with duplicates, so a replay feeds the set-insert path the exact
// sequence the live spec call would; one table serves every history its
// searcher checks, and labels that repeat content within one history (twins,
// memo re-entries) too.
//
// State IDs live as long as the table: no restart renumbers them, so a
// transition stays valid until its contents restart. Transitions belong to
// one comparable spec value (attach resets them on a change); under a
// non-comparable spec the table assigns content IDs but stores no
// transitions, and restarts at every check. It is owned by its searcher,
// which one goroutine runs at a time, so it takes no lock, and it is dropped
// with the searcher on budget eviction. Storage is flat, sized from the plan
// and allocated on first use, then doubled as it fills: an open-addressed
// transition array holding a lone successor inline, two successor arenas for
// transitions with more, a dense array of the representative labels held by
// value, and — once more than scanMax contents arrived — an open-addressed
// index over that array.
type stepTable struct {
	// on reports the table stores and replays the current check's
	// transitions: its spec is comparable.
	on   bool
	spec core.Spec
	// stateIDs maps canonical state keys to their dense state IDs, in
	// first-sight order.
	stateIDs map[string]uint32
	// init/initID cache the spec's initial state and its state ID once it
	// has one, skipping spec.Init and a StateKey rendering per check.
	init   core.AbsState
	initID uint32

	// slots is the transition index (linear probing, power-of-two size, at
	// most half full); used counts its entries. A slot's key is the
	// transition key plus one, so zero marks an empty slot.
	slots []stepSlot
	used  int
	// states/ids are the successor arenas of the transitions with more than
	// one successor; a deterministic spec never allocates them.
	states []core.AbsState
	ids    []uint32

	// reps holds one representative per distinct content, indexed by
	// content ID: IDs are dense, in arrival order. contents indexes reps by
	// hash (linear probing, power-of-two size, at most half full; a slot
	// holds a content ID plus one, zero marks it empty); it is built only
	// past scanMax contents, below which a scan of reps is as fast.
	reps     []contentRep
	contents []uint32
	// gen counts restarts: content IDs assigned under one generation mean
	// nothing under the next.
	gen uint64
}

// contentRep is one distinct label content: its hash and a representative
// label held by value.
type contentRep struct {
	hash  uint64
	label core.Label
}

// scanMax is the number of contents a table finds by scanning reps before it
// builds its hash index.
const scanMax = 8

// stepSlot is one stored transition: its key (plus one) and its n
// successors. A single successor is held inline (state, id); more sit at
// states[id:id+n] and ids[id:id+n]; n is 0 when the label is not admitted.
type stepSlot struct {
	key   uint64
	id, n uint32
	state core.AbsState
}

// attach readies the table for a check of spec: a warm table of the same
// spec is kept, anything else is reset. Only a spec whose dynamic type is
// comparable turns transitions on.
func (t *stepTable) attach(spec core.Spec) {
	if t.on && safeTokenEqual(t.spec, spec) {
		return
	}
	t.restart()
	t.on, t.spec = false, nil
	t.init, t.initID = nil, 0
	if typ := reflect.TypeOf(spec); typ != nil && typ.Comparable() {
		t.on, t.spec = true, spec
	}
}

// stateID returns the state ID of canonical key key, assigning the next
// dense ID on first sight. Each new key is first admitted against the
// session-wide Budget.MaxInternedStates (sess nil: no cap); the second
// result is false when the session is at that cap, and known keys always
// resolve.
func (t *stepTable) stateID(key string, sess *Session) (uint32, bool) {
	if id, ok := t.stateIDs[key]; ok {
		return id, true
	}
	if !sess.admitState() {
		return 0, false
	}
	if t.stateIDs == nil {
		t.stateIDs = make(map[string]uint32, 64)
	}
	id := uint32(len(t.stateIDs))
	t.stateIDs[key] = id
	return id, true
}

// restart drops every content and transition, keeping their storage, and
// starts a new generation. State IDs are kept.
func (t *stepTable) restart() {
	t.gen++
	clear(t.slots)
	t.used = 0
	clear(t.states)
	t.states, t.ids = t.states[:0], t.ids[:0]
	clear(t.contents)
	clear(t.reps)
	t.reps = t.reps[:0]
}

// contentIDs returns dst resized to one content ID per label, assigning the
// next dense ID to each content seen for the first time; a table already
// holding contentCap contents restarts first, so every label gets an ID and
// no transition outlives the numbering it was stored under. A content is
// found by hash, scanning the representatives or probing their index, and
// each candidate is compared exactly (sameContent), so a hash collision
// costs a comparison and never aliases two contents.
func (t *stepTable) contentIDs(dst []uint32, labels []*core.Label) []uint32 {
	if len(t.reps) >= contentCap {
		t.restart()
	}
	dst = slices.Grow(dst[:0], len(labels))[:len(labels)]
	for i, l := range labels {
		dst[i] = t.contentID(l, len(labels))
	}
	return dst
}

// contentID returns l's content ID; hint sizes a first allocation.
func (t *stepTable) contentID(l *core.Label, hint int) uint32 {
	h := splitmix64(uint64(contentFNV(l)))
	slot := -1
	if t.contents == nil {
		for id := range t.reps {
			if r := &t.reps[id]; r.hash == h && sameContent(&r.label, l) {
				return uint32(id)
			}
		}
	} else {
		slot = t.contentSlot(h, l)
		if id := t.contents[slot]; id != 0 {
			return id - 1
		}
	}
	if t.reps == nil {
		t.reps = make([]contentRep, 0, hint)
	}
	t.reps = append(t.reps, contentRep{hash: h, label: *l})
	id := uint32(len(t.reps))
	switch {
	case 2*len(t.reps) > len(t.contents) && len(t.reps) > scanMax:
		// Build or double the index over every representative.
		t.contents = make([]uint32, tableSize(4*len(t.reps)))
		for k := range t.reps {
			t.contents[t.contentSlot(t.reps[k].hash, nil)] = uint32(k) + 1
		}
	case slot >= 0:
		t.contents[slot] = id
	}
	return id - 1
}

// contentSlot returns the index of the index slot holding l's content (hash
// h), or of the empty slot ending its probe sequence. A nil l matches
// nothing.
func (t *stepTable) contentSlot(h uint64, l *core.Label) int {
	mask := len(t.contents) - 1
	i := int(h) & mask
	for id := t.contents[i]; id != 0; id = t.contents[i] {
		if r := &t.reps[id-1]; l != nil && r.hash == h && sameContent(&r.label, l) {
			break
		}
		i = (i + 1) & mask
	}
	return i
}

// tableSize is the smallest power of two holding n entries, at least 16.
func tableSize(n int) int {
	size := 16
	for size < n {
		size <<= 1
	}
	return size
}

// stepKey packs a transition key.
func stepKey(state, content uint32) uint64 { return uint64(state)<<32 | uint64(content) }

// slot returns the index of key's slot in slots: the one holding it, or the
// empty one ending its probe sequence. slots must be non-empty.
func (t *stepTable) slot(key uint64) int {
	mask := len(t.slots) - 1
	// Fibonacci hashing spreads the packed (state, content) bits.
	i := int((key*0x9e3779b97f4a7c15)>>32) & mask
	for t.slots[i].key != 0 && t.slots[i].key != key+1 {
		i = (i + 1) & mask
	}
	return i
}

// get returns the stored transition of (state, content), or nil.
func (t *stepTable) get(state, content uint32) *stepSlot {
	if len(t.slots) == 0 {
		return nil
	}
	if sl := &t.slots[t.slot(stepKey(state, content))]; sl.key != 0 {
		return sl
	}
	return nil
}

// put stores one transition, copying the successors (callers pass scratch);
// hint sizes the first allocation, room for one transition per plan label,
// which a first-contact check rarely outgrows. At the cap the table stops
// growing.
func (t *stepTable) put(state, content uint32, states []core.AbsState, ids []uint32, hint int) {
	if t.used >= stepCacheCap {
		return
	}
	if len(t.slots) == 0 {
		t.slots = make([]stepSlot, tableSize(2*hint))
	}
	key := stepKey(state, content)
	i := t.slot(key)
	if t.slots[i].key != 0 {
		return
	}
	sl := stepSlot{key: key + 1, n: uint32(len(states))}
	switch len(states) {
	case 0:
	case 1:
		sl.state, sl.id = states[0], ids[0]
	default:
		sl.id = uint32(len(t.states))
		t.states = append(t.states, states...)
		t.ids = append(t.ids, ids...)
	}
	t.slots[i] = sl
	t.used++
	if 2*t.used > len(t.slots) {
		t.growSlots()
	}
}

// growSlots doubles the slot array and reinserts every transition.
func (t *stepTable) growSlots() {
	old := t.slots
	t.slots = make([]stepSlot, 2*len(old))
	for _, sl := range old {
		if sl.key != 0 {
			t.slots[t.slot(sl.key-1)] = sl
		}
	}
}

// contentFNV hashes the fields a transition may read — the content
// sameContent compares — into an unfinalized FNV state. Labels of equal
// content always hash equal; values of types mixValue does not know hash by a
// shared tag and are told apart by the exact comparison.
func contentFNV(l *core.Label) fnv {
	h := fnv(fnvOffset)
	h.mixString(l.Object)
	h.mixString(l.Method)
	h.mix(uint64(l.Kind))
	h.mix(l.TS.Time)
	h.mix(uint64(l.TS.Replica))
	h.mix(uint64(len(l.Args)))
	for _, a := range l.Args {
		h.mixValue(a)
	}
	h.mixValue(l.Ret)
	return h
}

// sameContent reports whether a and b agree on every field a transition may
// read: Object, Method, Kind and TS by ==, Args and Ret by sameValue.
func sameContent(a, b *core.Label) bool {
	if a.Object != b.Object || a.Method != b.Method || a.Kind != b.Kind || a.TS != b.TS || len(a.Args) != len(b.Args) {
		return false
	}
	for k := range a.Args {
		if !sameValue(a.Args[k], b.Args[k]) {
			return false
		}
	}
	return sameValue(a.Ret, b.Ret)
}

// sameValue is core.ValueEqual with the scalar types the specifications use
// compared directly, which for them is exactly reflect.DeepEqual: every
// check compares each label's content once, so on a warm re-check the
// reflection walk is a visible share of the check.
func sameValue(a, b core.Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case string:
		y, ok := b.(string)
		return ok && x == y
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case core.Pair:
		y, ok := b.(core.Pair)
		return ok && x == y
	}
	return core.ValueEqual(a, b)
}

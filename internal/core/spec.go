package core

// AbsState is an abstract state ϕ of a sequential specification.
// Implementations are immutable from the checker's point of view: Step must
// not modify its input state.
type AbsState interface {
	// CloneAbs returns an independent copy of the state.
	CloneAbs() AbsState
	// EqualAbs reports whether two abstract states are equal.
	EqualAbs(AbsState) bool
	// String renders the state for diagnostics and figures.
	String() string
}

// Spec is an operational sequential specification (Definition 3.1, presented
// operationally as in Section 3.2): a transition relation over abstract
// states indexed by operation labels. Step returns the set of successor
// states, which is empty when the label is not admitted in the given state
// (precondition failure or mismatching return value) and may contain several
// states for nondeterministic specifications such as Wooki's addBetween.
type Spec interface {
	// Name identifies the specification (for example "Spec(RGA)").
	Name() string
	// Init returns the initial abstract state ϕ0.
	Init() AbsState
	// Step applies label l in state phi and returns all possible successor
	// states. It must not modify phi.
	Step(phi AbsState, l *Label) []AbsState
}

// StateKeyer is implemented by abstract states that expose a canonical,
// collision-free key: two states of the same specification must return equal
// keys exactly when EqualAbs holds. The pruned search engine memoizes visited
// (frontier-set, spec-state) pairs only for specifications whose states
// implement it; the second return value allows composite states to report
// that one of their components is not keyable.
type StateKeyer interface {
	// StateKey returns the canonical key and whether one is available.
	StateKey() (string, bool)
}

// StepAppender is the allocation-free fast path of a specification: instead
// of materializing a fresh successor slice per transition the way Spec.Step
// does, StepAppend appends the successor states of phi under l to dst and
// returns the extended slice. It must behave exactly like Step otherwise —
// same successors in the same order, dst[:len(dst)] left untouched, and no
// mutation of phi — so callers may use whichever surface they hold. The
// pruned search engine's hot loop steps through this interface with a reused
// scratch buffer, falling back to Step for foreign specifications.
type StepAppender interface {
	StepAppend(dst []AbsState, phi AbsState, l *Label) []AbsState
}

// StepInto applies label l to phi through the StepAppend fast path when the
// specification provides one, and through Step (with an appending copy)
// otherwise. The returned slice is dst extended with the successors.
func StepInto(s Spec, dst []AbsState, phi AbsState, l *Label) []AbsState {
	if sa, ok := s.(StepAppender); ok {
		return sa.StepAppend(dst, phi, l)
	}
	return append(dst, s.Step(phi, l)...)
}

// OwnedStepper is the in-place fast path of a deterministic specification,
// used by the justification folds (Admits, StatesAfter, FirstRejected): the
// spec has at most one successor for every state and label, phi belongs to
// the caller and may be mutated, and StepOwned returns the successor and
// true, or false when l is not admitted (phi is then unspecified). A fold
// clones its start state once and steps that copy through the whole
// sequence, where StepAppend would clone it for every update. The search
// keeps StepAppend: its states are shared between branches and interned.
type OwnedStepper interface {
	StepOwned(phi AbsState, l *Label) (AbsState, bool)
}

// Admits reports whether the sequence of labels is admitted by the
// specification, that is, whether some run of the specification applies the
// labels in order starting from the initial state. It answers only that
// existence question: an OwnedStepper spec is folded in place, every other
// spec is walked depth-first (admitsDepthFirst), stopping at the first run
// that consumes the whole sequence. StatesAfter and FirstRejected, which need
// every reachable state or the rejection index, keep the breadth-first fold.
func Admits(s Spec, seq []*Label) bool {
	if _, ok := s.(OwnedStepper); ok {
		_, rejected := fold(s, seq)
		return rejected < 0
	}
	return admitsDepthFirst(s, seq)
}

// admitsDepthFirst follows one run of s at a time: it continues on the first
// successor of every step, keeps the others as pending alternatives, and
// backtracks to the latest alternative when a label is rejected. A
// deterministic spec therefore costs exactly the steps of the set fold with a
// singleton set, and a nondeterministic one builds no state set and
// deduplicates nothing. The walk visits runs rather than distinct states, so
// it is bounded by the set fold only where branches never meet again: every
// nondeterministic spec of this repository (Wooki's addBetween, addAt2's
// addAt, and the compositions built over them) branches by inserting a fresh
// value at distinct positions of a list that never forgets an element, so
// distinct runs reach distinct states and the walk never takes more steps
// than the fold.
func admitsDepthFirst(s Spec, seq []*Label) bool {
	type branch struct {
		phi  AbsState
		next int
	}
	var pending []branch
	var succ []AbsState
	phi, i := s.Init(), 0
	for {
		for i < len(seq) {
			succ = StepInto(s, succ[:0], phi, seq[i])
			if len(succ) == 0 {
				break
			}
			i++
			// Pushed last-first, so the next alternative popped is the
			// spec's next successor in order.
			for k := len(succ) - 1; k > 0; k-- {
				pending = append(pending, branch{succ[k], i})
			}
			phi = succ[0]
		}
		if i == len(seq) {
			return true
		}
		if len(pending) == 0 {
			return false
		}
		b := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		phi, i = b.phi, b.next
	}
}

// StatesAfter returns the set of abstract states reachable by applying seq
// from the initial state, with duplicates removed. An empty result means the
// sequence is not admitted.
func StatesAfter(s Spec, seq []*Label) []AbsState {
	states, _ := fold(s, seq)
	return states
}

// FirstRejected returns the index of the first label of seq that cannot be
// applied (following any nondeterministic branch), or -1 if the whole
// sequence is admitted. It is a diagnostic helper used in error messages.
func FirstRejected(s Spec, seq []*Label) int {
	_, rejected := fold(s, seq)
	return rejected
}

// fold applies seq from the initial state and returns the deduplicated
// reachable set together with the index of the first rejected label (-1 when
// seq is admitted; the set is nil otherwise). A deterministic spec that
// implements OwnedStepper is stepped in place on one private copy of Init() —
// Init may return a shared value — and every other spec goes through
// StepInto and DedupStates.
func fold(s Spec, seq []*Label) ([]AbsState, int) {
	if stepper, ok := s.(OwnedStepper); ok {
		phi := s.Init().CloneAbs()
		for i, l := range seq {
			if phi, ok = stepper.StepOwned(phi, l); !ok {
				return nil, i
			}
		}
		return []AbsState{phi}, -1
	}
	states := []AbsState{s.Init()}
	for i, l := range seq {
		var next []AbsState
		for _, phi := range states {
			next = StepInto(s, next, phi, l)
		}
		states = DedupStates(next)
		if len(states) == 0 {
			return nil, i
		}
	}
	return states, -1
}

// dedupKeyedThreshold is the set size above which DedupStates leaves the
// quadratic EqualAbs scan: below it the key machinery costs more than the
// handful of comparisons it saves.
const dedupKeyedThreshold = 8

// dedupHashedThreshold is the set size above which keyed deduplication
// switches from the stack-buffered hash scan to the map: the hash tier's
// fixed-size buffers hold 64 states, and past that the map's allocation
// amortizes anyway.
const dedupHashedThreshold = 64

// DedupStates removes duplicates from a set of abstract states, preserving
// first occurrences. Sets up to dedupKeyedThreshold use the pairwise EqualAbs
// scan (cheapest for a handful of states). Above it, sets whose states all
// expose canonical keys (StateKeyer) are deduplicated by key: mid-size sets
// (≤ dedupHashedThreshold) through an allocation-free word-hash scan over
// stack buffers, larger ones through a map. States without keys always fall
// back to the EqualAbs scan. The input slice may be reused as the result's
// backing storage. (The pruned search engine goes further and dedups by
// interned compact-ID bitset; this is the shared slow path of the
// StatesAfter/FirstRejected fold and of Session.Extend's certificate replay.
// Admits builds no state set and never calls it.)
func DedupStates(states []AbsState) []AbsState {
	if len(states) <= 1 {
		return states
	}
	if len(states) > dedupKeyedThreshold {
		if len(states) <= dedupHashedThreshold {
			if out, ok := dedupByHash(states); ok {
				return out
			}
		} else if out, ok := dedupByKey(states); ok {
			return out
		}
	}
	var out []AbsState
	for _, s := range states {
		dup := false
		for _, t := range out {
			if t.EqualAbs(s) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// dedupByHash removes duplicates by canonical state key without allocating:
// each key is folded to a 64-bit hash in a stack array, candidates are
// compared hash-first (one word compare per prior state) and key-verified
// only on a hash match. Capacity is dedupHashedThreshold states; callers
// route larger sets to dedupByKey. Reports false as soon as any state does
// not expose a key.
func dedupByHash(states []AbsState) ([]AbsState, bool) {
	var hashes [dedupHashedThreshold]uint64
	var keys [dedupHashedThreshold]string
	n := 0
	w := 0
	for _, s := range states {
		keyer, ok := s.(StateKeyer)
		if !ok {
			return nil, false
		}
		key, ok := keyer.StateKey()
		if !ok {
			return nil, false
		}
		h := foldKey(key)
		dup := false
		for i := 0; i < n; i++ {
			if hashes[i] == h && keys[i] == key {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		hashes[n], keys[n] = h, key
		n++
		states[w] = s
		w++
	}
	return states[:w], true
}

// foldKey hashes a canonical state key to 64 bits: 8-byte little-endian
// chunks (plus a length-padded tail) mixed through splitmix64-style rounds,
// seeded by the key length so prefixes of one another do not collide
// trivially.
func foldKey(key string) uint64 {
	h := uint64(len(key)) ^ 0x9e3779b97f4a7c15
	i := 0
	for ; i+8 <= len(key); i += 8 {
		var w uint64
		for b := 0; b < 8; b++ {
			w |= uint64(key[i+b]) << (8 * b)
		}
		h = foldMix(h ^ w)
	}
	if i < len(key) {
		var w uint64
		for b := 0; i+b < len(key); b++ {
			w |= uint64(key[i+b]) << (8 * b)
		}
		h = foldMix(h ^ w)
	}
	return h
}

// foldMix is one splitmix64 finalization round.
func foldMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// dedupByKey removes duplicates by canonical state key in O(n). It reports
// false — leaving the caller to the EqualAbs fallback — as soon as any state
// does not expose a key.
func dedupByKey(states []AbsState) ([]AbsState, bool) {
	seen := make(map[string]struct{}, len(states))
	out := make([]AbsState, 0, len(states))
	for _, s := range states {
		keyer, ok := s.(StateKeyer)
		if !ok {
			return nil, false
		}
		key, ok := keyer.StateKey()
		if !ok {
			return nil, false
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, s)
	}
	return out, true
}

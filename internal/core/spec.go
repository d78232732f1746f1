package core

// AbsState is an abstract state ϕ of a sequential specification.
// Implementations are immutable from the checker's point of view: StepAppend
// must not modify its input state.
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
// states indexed by operation labels. StepAppend yields the set of successor
// states, which is empty when the label is not admitted in the given state
// (precondition failure or mismatching return value) and may contain several
// states for nondeterministic specifications such as Wooki's addBetween.
type Spec interface {
	// Name identifies the specification (for example "Spec(RGA)").
	Name() string
	// Init returns the initial abstract state ϕ0.
	Init() AbsState
	// StepAppend applies label l in state phi, appends every successor state
	// to dst in a fixed order and returns the extended slice. It must leave
	// dst[:len(dst)] and phi untouched, so callers can step into a reused
	// scratch buffer and share states between branches.
	//
	// A transition may read l's Object, Method, Args, Ret, TS and Kind, but
	// never its ID, Origin or GenSeq: two labels that differ only in those
	// three fields must step every state to equal successors. The search
	// relies on this to treat such labels as interchangeable twins (a
	// rewriting that needs an operation's identity puts it into Args).
	StepAppend(dst []AbsState, phi AbsState, l *Label) []AbsState
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

// OwnedStepper is the in-place fast path of a deterministic specification,
// used by the justification folds (Admits, StatesAfter, FirstRejected): the
// spec has at most one successor for every state and label, phi belongs to
// the caller and may be mutated, and StepOwned returns the successor and
// true, or false when l is not admitted (phi is then unspecified). A fold
// clones its start state once and steps that copy through the whole
// sequence, where StepAppend would clone it for every update. The search
// keeps StepAppend: its states are shared between branches and interned.
// spec.Set, spec.ORSet, spec.MVRegister and spec.RGA implement it, each with
// one transition function: StepAppend clones phi for an update and steps
// the copy through StepOwned, and steps phi itself for a query.
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
	if stepper, ok := s.(OwnedStepper); ok {
		_, rejected := foldOwned(s, stepper, seq)
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
			succ = s.StepAppend(succ[:0], phi, seq[i])
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
// StepAppend and DedupStates.
func fold(s Spec, seq []*Label) ([]AbsState, int) {
	if stepper, ok := s.(OwnedStepper); ok {
		phi, rejected := foldOwned(s, stepper, seq)
		if rejected >= 0 {
			return nil, rejected
		}
		return []AbsState{phi}, -1
	}
	states := []AbsState{s.Init()}
	for i, l := range seq {
		var next []AbsState
		for _, phi := range states {
			next = s.StepAppend(next, phi, l)
		}
		states = DedupStates(next)
		if len(states) == 0 {
			return nil, i
		}
	}
	return states, -1
}

// foldOwned steps one private copy of Init() — Init may return a shared
// value — through seq in place and returns the final state and -1, or the
// index of the first rejected label.
func foldOwned(s Spec, stepper OwnedStepper, seq []*Label) (AbsState, int) {
	phi := s.Init().CloneAbs()
	for i, l := range seq {
		var ok bool
		if phi, ok = stepper.StepOwned(phi, l); !ok {
			return nil, i
		}
	}
	return phi, -1
}

// DedupStates removes duplicates from a set of abstract states, preserving
// first occurrences. Sets whose states all expose canonical keys (StateKeyer)
// are deduplicated by key in linear time; a set with any state lacking a key
// falls back to the pairwise EqualAbs scan, the only test of equality such a
// state offers. (The pruned search engine goes further and dedups by interned
// compact-ID bitset; this is the shared slow path of the
// StatesAfter/FirstRejected fold and of Session.Extend's certificate replay.
// Admits builds no state set and never calls it.)
func DedupStates(states []AbsState) []AbsState {
	if len(states) <= 1 {
		return states
	}
	if out, ok := dedupByKey(states); ok {
		return out
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

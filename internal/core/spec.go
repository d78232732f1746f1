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
// keys exactly when EqualAbs holds. Only the pruned search engine reads it:
// it numbers keyed states with dense IDs, and memoizes visited
// (frontier-set, spec-state) pairs only for specifications whose states
// implement it. The folds compare no states. The second return value allows
// composite states to report that one of their components is not keyable.
type StateKeyer interface {
	// StateKey returns the canonical key and whether one is available.
	StateKey() (string, bool)
}

// OwnedStepper is the in-place fast path of a deterministic specification,
// used by Fold: the spec has at most one successor for every state and
// label, phi belongs to the caller and may be mutated, and StepOwned returns
// the successor and true, or false when l is not admitted (phi is then
// unspecified). Fold clones its start state once and steps that copy through
// the whole sequence, where StepAppend would clone it for every update, and
// Session.Extend steps its certificate's state the same way. The search
// keeps StepAppend: its states are shared between branches and interned.
// spec.Set, spec.ORSet, spec.MVRegister and spec.RGA implement it, each with
// one transition function: StepAppend clones phi for an update and steps
// the copy through StepOwned, and steps phi itself for a query.
type OwnedStepper interface {
	StepOwned(phi AbsState, l *Label) (AbsState, bool)
}

// Admits reports whether the sequence of labels is admitted by the
// specification, that is, whether some run of the specification applies the
// labels in order starting from the initial state.
func Admits(s Spec, seq []*Label) bool {
	_, rejected := Fold(s, seq)
	return rejected < 0
}

// Fold applies seq from the initial state along one run of s. When some run
// consumes the whole sequence it returns the state at the end of the first
// such run and -1; otherwise it returns nil and the index of the furthest
// label any run reached, which is the first label at which every run is
// rejected. An OwnedStepper spec is stepped in place on one private copy of
// Init() — Init may return a shared value — so its state belongs to the
// caller; any other spec's state may be shared and must not be mutated.
//
// Every other spec is walked depth-first: the walk continues on the first
// successor of every step, keeps the others as pending alternatives, and
// backtracks to the latest alternative when a label is rejected. A
// deterministic spec therefore costs one step per label, and a
// nondeterministic one builds no state set and deduplicates nothing. The
// walk visits runs rather than distinct states, so it is bounded by a
// breadth-first fold over deduplicated state sets only where branches never
// meet again: every nondeterministic spec of this repository (Wooki's
// addBetween, addAt2's addAt, and the compositions built over them) branches
// by inserting a fresh value at distinct positions of a list that never
// forgets an element, so distinct runs reach distinct states and the walk
// never takes more steps than that fold.
func Fold(s Spec, seq []*Label) (AbsState, int) {
	if stepper, ok := s.(OwnedStepper); ok {
		phi := s.Init().CloneAbs()
		for i, l := range seq {
			var ok bool
			if phi, ok = stepper.StepOwned(phi, l); !ok {
				return nil, i
			}
		}
		return phi, -1
	}
	type branch struct {
		phi  AbsState
		next int
	}
	var pending []branch
	var succ []AbsState
	phi, i, furthest := s.Init(), 0, 0
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
			return phi, -1
		}
		furthest = max(furthest, i)
		if len(pending) == 0 {
			return nil, furthest
		}
		b := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		phi, i = b.phi, b.next
	}
}

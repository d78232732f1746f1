// Package spec contains the sequential specifications of Section 3.2 and the
// appendices: Counter, LWW-Register, Set, OR-Set, Multi-Value Register, RGA,
// Wooki and the three addAt list specifications of Appendix C. Each
// specification implements core.Spec: an operational transition relation over
// abstract states, used by the RA-linearizability checker and by the
// refinement proof obligations.
package spec

import (
	"fmt"
	"strconv"

	"ralin/internal/core"
)

// CounterState is the abstract state of Spec(Counter): an integer
// (Example 3.2).
type CounterState int64

// CloneAbs returns the state itself (integers are immutable).
func (s CounterState) CloneAbs() core.AbsState { return s }

// EqualAbs reports integer equality.
func (s CounterState) EqualAbs(o core.AbsState) bool {
	c, ok := o.(CounterState)
	return ok && c == s
}

// String renders the counter value.
func (s CounterState) String() string { return fmt.Sprintf("%d", int64(s)) }

// StateKey returns the canonical key (the value itself), enabling search
// memoization.
func (s CounterState) StateKey() (string, bool) { return strconv.FormatInt(int64(s), 10), true }

// Counter is Spec(Counter) of Example 3.2 (and Appendix B.1): inc() increases
// the value, dec() decreases it, read() ⇒ k returns it.
type Counter struct{}

// Name returns "Spec(Counter)".
func (Counter) Name() string { return "Spec(Counter)" }

// Init returns the zero counter.
func (Counter) Init() core.AbsState { return CounterState(0) }

// Commutes implements core.Commuter: inc and dec commute with each other and
// with themselves, since each adds a constant to any counter value. Reads
// commute with nothing.
func (Counter) Commutes(a, b *core.Label) bool {
	return counterUpdate(a) && counterUpdate(b)
}

// counterUpdate reports whether l is an inc or a dec.
func counterUpdate(l *core.Label) bool { return l.Method == "inc" || l.Method == "dec" }

// StepAppend appends the successors of phi under l to dst; dst is returned
// unchanged when the label is not admitted.
func (Counter) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(CounterState)
	if !ok {
		return dst
	}
	if next, ok := s.step(l); ok {
		return append(dst, next)
	}
	return dst
}

// StepOwned returns the successor of phi under l (the core.OwnedStepper fold
// path). A counter state is an immutable integer, so stepping it "in place"
// is returning the next value: a fold over Counter steps no successor slice.
func (Counter) StepOwned(phi core.AbsState, l *core.Label) (core.AbsState, bool) {
	s, ok := phi.(CounterState)
	if !ok {
		return nil, false
	}
	if next, ok := s.step(l); ok {
		return next, true
	}
	return nil, false
}

// step is Spec(Counter)'s one transition function: inc and dec move the
// value, and read() ⇒ k is admitted when k is the value.
func (s CounterState) step(l *core.Label) (CounterState, bool) {
	switch l.Method {
	case "inc":
		return s + 1, true
	case "dec":
		return s - 1, true
	case "read":
		ret, ok := l.Ret.(int64)
		return s, ok && ret == int64(s)
	default:
		return 0, false
	}
}

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

// StepAppend appends the successors of phi under l to dst; dst is returned
// unchanged when the label is not admitted.
func (Counter) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(CounterState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "inc":
		return append(dst, s+1)
	case "dec":
		return append(dst, s-1)
	case "read":
		ret, ok := l.Ret.(int64)
		if ok && ret == int64(s) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

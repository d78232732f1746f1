package search

import (
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

func TestHash128Deterministic(t *testing.T) {
	sum := func(words []uint64) key128 {
		h := newHash128()
		for _, w := range words {
			h.mix(w)
		}
		return h.sum()
	}
	a := sum([]uint64{1, 2, 3})
	if b := sum([]uint64{1, 2, 3}); a != b {
		t.Fatalf("same input hashed differently: %v vs %v", a, b)
	}
	if b := sum([]uint64{3, 2, 1}); a == b {
		t.Fatalf("order must matter: %v", a)
	}
	if b := sum([]uint64{1, 2}); a == b {
		t.Fatalf("length must matter: %v", a)
	}
	if b := sum([]uint64{1, 2, 4}); a == b {
		t.Fatalf("content must matter: %v", a)
	}
	if z := sum(nil); z == (key128{}) {
		t.Fatal("empty hash must not be the zero key")
	}
}

// TestUnkeyableStateDisablesMemo checks the keyability flag: a spec whose
// states expose no canonical key must flip memoization off for the check and
// still refute correctly via the EqualAbs dedup fallback.
func TestUnkeyableStateDisablesMemo(t *testing.T) {
	h := distinctIncsHistory(4, 99)
	out := Run(h, unkeyedCounter{}, false, core.CheckOptions{})
	if out.OK || !out.Complete {
		t.Fatalf("history must be refuted: %+v", out)
	}
	if out.MemoHits != 0 {
		t.Fatalf("unkeyable states must disable memoization, got %d hits", out.MemoHits)
	}
}

// unkeyedCounter wraps spec.Counter in states that hide StateKey. It
// overrides the promoted StepAppend so that the wrapped counter steps the
// inner value and every successor is re-wrapped.
type unkeyedCounter struct{ spec.Counter }

type unkeyedState struct{ v spec.CounterState }

func (s unkeyedState) CloneAbs() core.AbsState { return s }
func (s unkeyedState) EqualAbs(o core.AbsState) bool {
	t, ok := o.(unkeyedState)
	return ok && t.v == s.v
}
func (s unkeyedState) String() string { return s.v.String() }

func (unkeyedCounter) Init() core.AbsState { return unkeyedState{v: 0} }

func (c unkeyedCounter) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(unkeyedState)
	if !ok {
		return dst
	}
	base := len(dst)
	dst = c.Counter.StepAppend(dst, s.v, l)
	for i := base; i < len(dst); i++ {
		dst[i] = unkeyedState{v: dst[i].(spec.CounterState)}
	}
	return dst
}

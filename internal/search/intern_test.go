package search

import (
	"fmt"
	"sync"
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

func TestInternerDenseAndStable(t *testing.T) {
	in := newInterner()
	keys := []string{"a", "b", "c", "a", "b", "d", ""}
	first := make(map[string]uint32)
	for _, k := range keys {
		id, ok := in.id(k)
		if !ok {
			t.Fatalf("unbudgeted interner rejected key %q", k)
		}
		if prev, ok := first[k]; ok && prev != id {
			t.Fatalf("id of %q changed: %d then %d", k, prev, id)
		}
		first[k] = id
	}
	if in.size() != 5 {
		t.Fatalf("expected 5 distinct keys, got %d", in.size())
	}
	seen := make(map[uint32]string)
	for k, id := range first {
		if id >= 5 {
			t.Fatalf("IDs must be dense 0..4, %q got %d", k, id)
		}
		if other, dup := seen[id]; dup {
			t.Fatalf("keys %q and %q share ID %d", k, other, id)
		}
		seen[id] = k
	}
}

func TestInternerConcurrent(t *testing.T) {
	in := newInterner()
	const workers, keysN = 8, 200
	var wg sync.WaitGroup
	got := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		w := w
		got[w] = make([]uint32, keysN)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keysN; k++ {
				got[w][k], _ = in.id(fmt.Sprintf("key-%d", k))
			}
		}()
	}
	wg.Wait()
	if in.size() != keysN {
		t.Fatalf("expected %d distinct keys, got %d", keysN, in.size())
	}
	for w := 1; w < workers; w++ {
		for k := 0; k < keysN; k++ {
			if got[w][k] != got[0][k] {
				t.Fatalf("worker %d saw ID %d for key %d, worker 0 saw %d", w, got[w][k], k, got[0][k])
			}
		}
	}
}

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

// TestMemoKeyStableAcrossWorkers checks the configuration hash is a function
// of the configuration alone: two independent searchers sharing one interner
// must compute identical keys for identical prefixes, regardless of the
// order in which each interned other states first.
func TestMemoKeyStableAcrossWorkers(t *testing.T) {
	// Distinct arguments keep the incs from being twins, so every prefix
	// below is one the search can reach.
	h := distinctIncsHistory(4, 4)
	pre := &prepared{}
	if err := pre.build(h, false); err != nil {
		t.Fatal(err)
	}
	sh := newShared(0)
	intern := newInterner()
	memo := newMemoTable()
	a := newSearcher(nil, pre, spec.Counter{}, false, intern, memo, sh, nil, 0)
	b := newSearcher(nil, pre, spec.Counter{}, false, intern, memo, sh, nil, 1)
	// Warm b's view of the interner in a different order: place 1 then 0.
	if !b.enter(1) || !b.enter(0) {
		t.Fatal("prefix [1 0] must be admissible")
	}
	b.reset()
	for _, s := range []*searcher{a, b} {
		if !s.enter(0) || !s.enter(1) {
			t.Fatal("prefix [0 1] must be admissible")
		}
	}
	ka, oka := a.memoKey()
	kb, okb := b.memoKey()
	if !oka || !okb {
		t.Fatalf("counter states are keyable: oka=%v okb=%v", oka, okb)
	}
	if ka != kb {
		t.Fatalf("same configuration hashed differently: %v vs %v", ka, kb)
	}
	// And a genuinely different configuration must (overwhelmingly) differ.
	b.reset()
	if !b.enter(0) || !b.enter(2) {
		t.Fatal("prefix [0 2] must be admissible")
	}
	if kc, _ := b.memoKey(); kc == ka {
		t.Fatalf("distinct placed sets hashed equal: %v", kc)
	}
}

// TestUnkeyableStateDisablesMemo checks the shared keyability flag: a spec
// whose states expose no canonical key must flip memoization off globally and
// still refute correctly via the EqualAbs dedup fallback.
func TestUnkeyableStateDisablesMemo(t *testing.T) {
	h := distinctIncsHistory(4, 99)
	out := Run(h, unkeyedCounter{}, false, core.CheckOptions{Parallelism: 1})
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

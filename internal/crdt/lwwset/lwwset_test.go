package lwwset

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
)

func TestLWWSetAddRemoveByTimestamp(t *testing.T) {
	d := Descriptor()
	sys := d.NewSBSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "add", "a")
	sys.MustInvoke(0, "remove", "a") // remove has the larger timestamp
	sys.MustInvoke(1, "add", "b")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"b"}) {
			t.Fatalf("replica %s read %v, want [b]", r, got)
		}
	}
	if !sys.Converged() {
		t.Fatal("set must converge")
	}
	// A later add re-inserts the element.
	sys.MustInvoke(1, "add", "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	got := sys.MustInvoke(0, "read").Ret
	if !core.ValueEqual(got, []string{"a", "b"}) {
		t.Fatalf("read %v, want [a b]", got)
	}
}

func TestLWWSetConcurrentAddRemoveResolvedByTimestamp(t *testing.T) {
	// The operation with the larger timestamp wins, regardless of delivery
	// order.
	d := Descriptor()
	sys := d.NewSBSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "add", "x")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	rem := sys.MustInvoke(0, "remove", "x")
	add := sys.MustInvoke(1, "add", "x")
	if !rem.TS.Less(add.TS) {
		t.Fatalf("expected the concurrent add to carry the larger timestamp (%v vs %v)", rem.TS, add.TS)
	}
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"x"}) {
			t.Fatalf("replica %s read %v, want [x]", r, got)
		}
	}
}

func TestLWWSetMergeLattice(t *testing.T) {
	typ := Type{}
	a := NewState()
	a.Adds[Tagged{Elem: "x", TS: clock.Timestamp{Time: 1, Replica: 0}}] = true
	b := NewState()
	b.Removes[Tagged{Elem: "x", TS: clock.Timestamp{Time: 2, Replica: 1}}] = true
	m := typ.Merge(a, b).(State)
	if len(m.Adds) != 1 || len(m.Removes) != 1 {
		t.Fatalf("merge must union both components: %v", m)
	}
	if !typ.Leq(a, m) || !typ.Leq(b, m) || typ.Leq(m, a) {
		t.Fatal("Leq wrong")
	}
	if !typ.Merge(a, a).EqualState(a) || !typ.Merge(a, b).EqualState(typ.Merge(b, a)) {
		t.Fatal("merge must be idempotent and commutative")
	}
	if got := m.Values(); len(got) != 0 {
		t.Fatalf("newer remove must hide the element, got %v", got)
	}
}

func TestLWWSetLocalApplyFreshArgs(t *testing.T) {
	add := &core.Label{Method: "add", Args: []core.Value{"a"}, TS: clock.Timestamp{Time: 1, Replica: 0}}
	rem := &core.Label{Method: "remove", Args: []core.Value{"a"}, TS: clock.Timestamp{Time: 2, Replica: 1}}
	st := NewState()
	if !Fresh(st, add) {
		t.Fatal("empty state must be fresh")
	}
	st2 := LocalApply(st, add).(State)
	if len(st.Adds) != 0 {
		t.Fatal("LocalApply must not mutate its input")
	}
	if !Fresh(st2, rem) {
		t.Fatal("later remove must be fresh")
	}
	st3 := LocalApply(st2, rem).(State)
	if Fresh(st3, add) {
		t.Fatal("older add must not be fresh in a newer state")
	}
	if got := st3.Values(); len(got) != 0 {
		t.Fatalf("remove with larger timestamp must hide the element: %v", got)
	}
	if !ArgEqual(add, add) || ArgEqual(add, rem) {
		t.Fatal("ArgEqual wrong")
	}
	if !ArgLess(add, rem) || ArgLess(rem, add) {
		t.Fatal("ArgLess wrong")
	}
	if got := StateTimestamps(st3); len(got) != 2 {
		t.Fatalf("StateTimestamps wrong: %v", got)
	}
	if Abs(st3).String() != "[]" {
		t.Fatalf("Abs wrong: %v", Abs(st3))
	}
}

func TestLWWSetErrors(t *testing.T) {
	typ := Type{}
	if _, _, err := typ.Apply(NewState(), "add", nil, clock.Bottom, 0); err == nil {
		t.Fatal("add without argument must fail")
	}
	if _, _, err := typ.Apply(NewState(), "add", []core.Value{1}, clock.Bottom, 0); err == nil {
		t.Fatal("mistyped add must fail")
	}
	if _, _, err := typ.Apply(NewState(), "clear", nil, clock.Bottom, 0); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestLWWSetRandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(23))
	elems := []string{"a", "b"}
	for trial := 0; trial < 10; trial++ {
		sys := d.NewSBSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 7; i++ {
			if _, err := d.RandomOp(rng, sys, elems); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				sys.ExchangeRandom(rng)
			}
		}
		res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: random LWW-Element-Set history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

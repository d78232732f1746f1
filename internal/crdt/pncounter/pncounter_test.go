package pncounter

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
)

func TestPNCounterBasics(t *testing.T) {
	d := Descriptor()
	sys := d.NewSBSystem(runtime.Config{Replicas: 3})
	sys.MustInvoke(0, "inc")
	sys.MustInvoke(1, "inc")
	sys.MustInvoke(2, "dec")
	if got := sys.MustInvoke(0, "read").Ret; got != int64(1) {
		t.Fatalf("local read %v, want 1", got)
	}
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		if got := sys.MustInvoke(r, "read").Ret; got != int64(1) {
			t.Fatalf("replica %s read %v, want 1", r, got)
		}
	}
	if !sys.Converged() {
		t.Fatal("PN-Counter must converge")
	}
}

func TestPNCounterMergeIsLub(t *testing.T) {
	typ := Type{}
	a := NewState()
	a.P.Set(0, 3)
	a.N.Set(1, 1)
	b := NewState()
	b.P.Set(0, 1)
	b.P.Set(1, 2)
	m := typ.Merge(a, b).(State)
	if m.P.Get(0) != 3 || m.P.Get(1) != 2 || m.N.Get(1) != 1 {
		t.Fatalf("merge wrong: %v", m)
	}
	if !typ.Leq(a, m) || !typ.Leq(b, m) {
		t.Fatal("merge must be an upper bound")
	}
	if typ.Leq(m, a) {
		t.Fatal("Leq must not hold downwards")
	}
	// Idempotence and commutativity.
	if !typ.Merge(a, a).EqualState(a) {
		t.Fatal("merge must be idempotent")
	}
	if !typ.Merge(a, b).EqualState(typ.Merge(b, a)) {
		t.Fatal("merge must be commutative")
	}
}

func TestPNCounterDuplicateDelivery(t *testing.T) {
	sys := runtime.NewSBSystem(Type{}, runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "inc")
	m, err := sys.Send(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sys.Receive(1, m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.MustInvoke(1, "read").Ret; got != int64(1) {
		t.Fatalf("duplicate state delivery must not double-count: got %v", got)
	}
}

func TestPNCounterLocalApplyAndFresh(t *testing.T) {
	st := NewState()
	inc := &core.Label{Method: "inc", Origin: 1}
	dec := &core.Label{Method: "dec", Origin: 2}
	if !Fresh(st, inc) || !Fresh(st, dec) {
		t.Fatal("empty state must be fresh for any operation")
	}
	st2 := LocalApply(st, inc).(State)
	if st2.Value() != 1 || st.Value() != 0 {
		t.Fatal("LocalApply must not mutate its input")
	}
	if Fresh(st2, inc) {
		t.Fatal("second inc from the same replica is not fresh")
	}
	if !Fresh(st2, dec) {
		t.Fatal("dec from another replica must stay fresh")
	}
	st3 := LocalApply(st2, dec).(State)
	if st3.Value() != 0 {
		t.Fatalf("value after inc+dec = %d, want 0", st3.Value())
	}
	if !ArgEqual(inc, &core.Label{Method: "inc", Origin: 1}) ||
		ArgEqual(inc, dec) ||
		ArgEqual(inc, &core.Label{Method: "inc", Origin: 3}) {
		t.Fatal("ArgEqual wrong")
	}
	if Abs(st3).String() != "0" {
		t.Fatal("Abs wrong")
	}
}

func TestPNCounterErrors(t *testing.T) {
	typ := Type{}
	if _, _, err := typ.Apply(NewState(), "pow", nil, clock.Bottom, 0); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestPNCounterRandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		sys := d.NewSBSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 8; i++ {
			if _, err := d.RandomOp(rng, sys, nil); err != nil {
				t.Fatal(err)
			}
			for rng.Intn(2) == 0 && sys.ExchangeRandom(rng) {
				break
			}
		}
		res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: random PN-Counter history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

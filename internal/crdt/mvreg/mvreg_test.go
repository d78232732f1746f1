package mvreg

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
)

func TestMVRegisterConcurrentWritesBothKept(t *testing.T) {
	d := Descriptor()
	sys := d.NewSBSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "write", "a")
	sys.MustInvoke(1, "write", "b")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"a", "b"}) {
			t.Fatalf("replica %s read %v, want [a b]", r, got)
		}
	}
	if !sys.Converged() {
		t.Fatal("register must converge")
	}
	// A subsequent write dominates both concurrent values.
	sys.MustInvoke(0, "write", "c")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"c"}) {
			t.Fatalf("replica %s read %v, want [c]", r, got)
		}
	}
}

func TestMVRegisterWriteVectorDominatesSeenWrites(t *testing.T) {
	sys := runtime.NewSBSystem(Type{}, runtime.Config{Replicas: 2})
	w1 := sys.MustInvoke(0, "write", "a")
	if err := sys.Broadcast(0); err != nil {
		t.Fatal(err)
	}
	w2 := sys.MustInvoke(1, "write", "b")
	v1 := w1.Ret.(clock.VersionVector)
	v2 := w2.Ret.(clock.VersionVector)
	if !v1.Less(v2) {
		t.Fatalf("a write that saw another must dominate it: %v vs %v", v1, v2)
	}
}

func TestMVRegisterConcurrentVectorsIncomparable(t *testing.T) {
	sys := runtime.NewSBSystem(Type{}, runtime.Config{Replicas: 2})
	w1 := sys.MustInvoke(0, "write", "a")
	w2 := sys.MustInvoke(1, "write", "b")
	v1 := w1.Ret.(clock.VersionVector)
	v2 := w2.Ret.(clock.VersionVector)
	if !v1.Concurrent(v2) {
		t.Fatalf("concurrent writes must carry incomparable vectors: %v vs %v", v1, v2)
	}
}

func TestMVRegisterMergeAndLeq(t *testing.T) {
	typ := Type{}
	v1 := clock.NewVersionVector()
	v1.Increment(0)
	v2 := clock.NewVersionVector()
	v2.Increment(1)
	v12 := v1.Merge(v2)
	v12.Increment(0)

	a := State{{Elem: "a", VV: v1}}
	b := State{{Elem: "b", VV: v2}}
	c := State{{Elem: "c", VV: v12}}

	m := typ.Merge(a, b).(State)
	if len(m) != 2 {
		t.Fatalf("concurrent entries must both survive merge: %v", m)
	}
	m2 := typ.Merge(m, c).(State)
	if len(m2) != 1 || m2[0].Elem != "c" {
		t.Fatalf("dominating entry must win the merge: %v", m2)
	}
	if !typ.Leq(a, m) || !typ.Leq(b, m) || typ.Leq(c, a) {
		t.Fatal("Leq wrong")
	}
	// Merge is idempotent and commutative.
	if !typ.Merge(a, a).EqualState(a) {
		t.Fatal("merge must be idempotent")
	}
	if !typ.Merge(a, b).EqualState(typ.Merge(b, a)) {
		t.Fatal("merge must be commutative")
	}
}

func TestMVRegisterLocalApplyFreshAndArgs(t *testing.T) {
	v1 := clock.NewVersionVector()
	v1.Increment(0)
	v2 := clock.NewVersionVector()
	v2.Increment(1)
	v12 := v1.Merge(v2)
	v12.Increment(0)

	w1 := &core.Label{Method: "write", Args: []core.Value{"a"}, Ret: v1, Origin: 0}
	w2 := &core.Label{Method: "write", Args: []core.Value{"b"}, Ret: v2, Origin: 1}
	w3 := &core.Label{Method: "write", Args: []core.Value{"c"}, Ret: v12, Origin: 0}

	st := NewState()
	st = LocalApply(st, w1).(State)
	st = LocalApply(st, w2).(State)
	if len(st) != 2 {
		t.Fatalf("concurrent local effectors must both survive: %v", st)
	}
	if !Fresh(st, w3) {
		t.Fatal("dominating write must be fresh")
	}
	st = LocalApply(st, w3).(State)
	if len(st) != 1 || st[0].Elem != "c" {
		t.Fatalf("dominating local effector must replace dominated entries: %v", st)
	}
	if Fresh(st, w1) {
		t.Fatal("dominated write must not be fresh")
	}
	if !ArgLess(w1, w3) || ArgLess(w3, w1) || ArgLess(w1, w2) {
		t.Fatal("ArgLess wrong")
	}
	if !ArgEqual(w1, w1) || ArgEqual(w1, w2) {
		t.Fatal("ArgEqual wrong")
	}
}

func TestMVRegisterRewriting(t *testing.T) {
	v := clock.NewVersionVector()
	v.Increment(2)
	l := &core.Label{ID: 1, Method: "write", Args: []core.Value{"a"}, Ret: v, Kind: core.KindUpdate}
	imgs, err := Rewriting().Rewrite(l)
	if err != nil || len(imgs) != 1 {
		t.Fatalf("rewrite failed: %v %v", imgs, err)
	}
	if len(imgs[0].Args) != 2 || imgs[0].Ret != nil {
		t.Fatalf("rewritten write wrong: %v", imgs[0])
	}
	if _, err := Rewriting().Rewrite(&core.Label{Method: "write", Args: []core.Value{"a"}}); err == nil {
		t.Fatal("write without vector return must fail to rewrite")
	}
	read := &core.Label{Method: "read", Ret: []string{"a"}, Kind: core.KindQuery}
	imgs, err = Rewriting().Rewrite(read)
	if err != nil || len(imgs) != 1 || imgs[0].Method != "read" {
		t.Fatal("read must be left unchanged")
	}
}

func TestMVRegisterErrors(t *testing.T) {
	typ := Type{}
	if _, _, err := typ.Apply(NewState(), "write", nil, clock.Bottom, 0); err == nil {
		t.Fatal("write without argument must fail")
	}
	if _, _, err := typ.Apply(NewState(), "write", []core.Value{1}, clock.Bottom, 0); err == nil {
		t.Fatal("mistyped write must fail")
	}
	if _, _, err := typ.Apply(NewState(), "wat", nil, clock.Bottom, 0); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestMVRegisterRandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(17))
	elems := []string{"a", "b", "c"}
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
			t.Fatalf("trial %d: random MV-Register history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

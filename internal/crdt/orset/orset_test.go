package orset

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
)

func TestORSetAddWinsOverConcurrentRemove(t *testing.T) {
	// The add/remove conflict of Figure 4: a remove only erases the
	// identifiers it observed, so a concurrent add survives.
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "add", "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	sys.MustInvoke(0, "remove", "a") // observes only the first add
	sys.MustInvoke(1, "add", "a")    // concurrent add with a fresh identifier
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"a"}) {
			t.Fatalf("replica %s read %v, want [a]", r, got)
		}
	}
	if !sys.Converged() {
		t.Fatal("OR-Set must converge")
	}
}

func TestORSetRemoveErasesObservedOnly(t *testing.T) {
	sys := runtime.NewSystem(Type{}, runtime.Config{Replicas: 2})
	add := sys.MustInvoke(0, "add", "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	rem := sys.MustInvoke(1, "remove", "a")
	observed := rem.Ret.([]core.Pair)
	if len(observed) != 1 || observed[0].ID != add.Ret.(uint64) {
		t.Fatalf("remove must observe exactly the delivered add, got %v", observed)
	}
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	got := sys.MustInvoke(0, "read").Ret
	if !core.ValueEqual(got, []string{}) {
		t.Fatalf("read %v, want []", got)
	}
}

func TestORSetRemoveOfAbsentElement(t *testing.T) {
	sys := runtime.NewSystem(Type{}, runtime.Config{Replicas: 1})
	rem := sys.MustInvoke(0, "remove", "ghost")
	if got := rem.Ret.([]core.Pair); len(got) != 0 {
		t.Fatalf("removing an absent element observes nothing, got %v", got)
	}
	got := sys.MustInvoke(0, "read").Ret
	if !core.ValueEqual(got, []string{}) {
		t.Fatalf("read %v, want []", got)
	}
}

func TestORSetAddIdentifiersUnique(t *testing.T) {
	sys := runtime.NewSystem(Type{}, runtime.Config{Replicas: 2})
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		l := sys.MustInvoke(clock.ReplicaID(i%2), "add", "a")
		id := l.Ret.(uint64)
		if seen[id] {
			t.Fatalf("identifier %d reused", id)
		}
		seen[id] = true
	}
}

func TestORSetRewriting(t *testing.T) {
	rw := Rewriting()
	add := &core.Label{ID: 1, Method: "add", Args: []core.Value{"a"}, Ret: uint64(7), Kind: core.KindUpdate}
	imgs, err := rw.Rewrite(add)
	if err != nil || len(imgs) != 1 {
		t.Fatalf("add rewriting failed: %v %v", imgs, err)
	}
	if imgs[0].Args[1] != uint64(7) || imgs[0].Ret != nil {
		t.Fatalf("rewritten add wrong: %v", imgs[0])
	}
	rem := &core.Label{ID: 2, Method: "remove", Args: []core.Value{"a"}, Ret: []core.Pair{{Elem: "a", ID: 7}}, Kind: core.KindQueryUpdate}
	imgs, err = rw.Rewrite(rem)
	if err != nil || len(imgs) != 2 {
		t.Fatalf("remove rewriting failed: %v %v", imgs, err)
	}
	if imgs[0].Method != "readIds" || !imgs[0].IsQuery() {
		t.Fatalf("query part wrong: %v", imgs[0])
	}
	if imgs[1].Method != "removeIds" || !imgs[1].IsUpdate() {
		t.Fatalf("update part wrong: %v", imgs[1])
	}
	if _, err := rw.Rewrite(&core.Label{Method: "add", Args: []core.Value{"a"}}); err == nil {
		t.Fatal("add without identifier return must fail to rewrite")
	}
	if _, err := rw.Rewrite(&core.Label{Method: "remove", Args: []core.Value{"a"}}); err == nil {
		t.Fatal("remove without observed-pairs return must fail to rewrite")
	}
	read := &core.Label{Method: "read", Ret: []string{}, Kind: core.KindQuery}
	if imgs, err := rw.Rewrite(read); err != nil || len(imgs) != 1 {
		t.Fatal("read must pass through")
	}
}

func TestORSetFig5StyleHistoryRALinearizable(t *testing.T) {
	// The Section 2.2 phenomenon: reads that saw every update return {a, b}
	// even though every plain-Set linearization would end with a remove.
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "add", "b")
	sys.MustInvoke(0, "add", "a")
	sys.MustInvoke(0, "remove", "a") // observes only its own add of a
	sys.MustInvoke(1, "add", "a")
	sys.MustInvoke(1, "add", "b")
	sys.MustInvoke(1, "remove", "b") // observes only its own add of b
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"a", "b"}) {
			t.Fatalf("replica %s read %v, want [a b]", r, got)
		}
	}
	res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
	if res.Verdict != core.VerdictValid {
		t.Fatalf("OR-Set history must be RA-linearizable after rewriting: %v", res.LastErr)
	}
	if res.Strategy == nil || *res.Strategy != core.StrategyExecutionOrder {
		t.Fatalf("OR-Set must linearize in execution order, got %v", res.Strategy)
	}
}

func TestORSetStateHelpers(t *testing.T) {
	st := NewState()
	st[core.Pair{Elem: "b", ID: 2}] = true
	st[core.Pair{Elem: "a", ID: 1}] = true
	if !core.ValueEqual(st.Values(), []string{"a", "b"}) {
		t.Fatal("Values wrong")
	}
	if got := st.PairsOf("a"); len(got) != 1 || got[0].ID != 1 {
		t.Fatal("PairsOf wrong")
	}
	if st.String() != "{a#1 b#2}" {
		t.Fatalf("String wrong: %q", st.String())
	}
	clone := st.CloneState().(State)
	delete(clone, core.Pair{Elem: "a", ID: 1})
	if len(st) != 2 {
		t.Fatal("CloneState must not alias")
	}
	if st.EqualState(clone) {
		t.Fatal("EqualState wrong after mutation")
	}
	if Abs(st).String() != "[a#1 b#2]" {
		t.Fatalf("Abs wrong: %v", Abs(st))
	}
}

func TestORSetErrors(t *testing.T) {
	typ := Type{}
	ts := clock.Timestamp{Time: 1, Replica: 0}
	if _, _, err := typ.Generate(NewState(), "add", nil, ts); err == nil {
		t.Fatal("add without argument must fail")
	}
	if _, _, err := typ.Generate(NewState(), "add", []core.Value{1}, ts); err == nil {
		t.Fatal("mistyped add must fail")
	}
	if _, _, err := typ.Generate(NewState(), "remove", nil, ts); err == nil {
		t.Fatal("remove without argument must fail")
	}
	if _, _, err := typ.Generate(NewState(), "remove", []core.Value{1}, ts); err == nil {
		t.Fatal("mistyped remove must fail")
	}
	if _, _, err := typ.Generate(NewState(), "pop", nil, ts); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestORSetRandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(41))
	elems := []string{"a", "b"}
	for trial := 0; trial < 10; trial++ {
		sys := d.NewOpSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 7; i++ {
			if _, err := d.RandomOp(rng, sys, elems); err != nil {
				t.Fatal(err)
			}
			for rng.Intn(2) == 0 && sys.DeliverRandom(rng) {
			}
		}
		res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: random OR-Set history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

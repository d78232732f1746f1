package rga

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
	"ralin/internal/spec"
)

func TestAddAtBasics(t *testing.T) {
	d := AddAtDescriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	l := sys.MustInvoke(0, "addAt", "a", 0)
	if !core.ValueEqual(l.Ret, []string{"a"}) {
		t.Fatalf("addAt must return the updated local list, got %v", l.Ret)
	}
	l = sys.MustInvoke(0, "addAt", "b", 0)
	if !core.ValueEqual(l.Ret, []string{"b", "a"}) {
		t.Fatalf("addAt at the front wrong: %v", l.Ret)
	}
	l = sys.MustInvoke(0, "addAt", "c", 1)
	if !core.ValueEqual(l.Ret, []string{"b", "c", "a"}) {
		t.Fatalf("addAt in the middle wrong: %v", l.Ret)
	}
	l = sys.MustInvoke(0, "addAt", "d", 99)
	if !core.ValueEqual(l.Ret, []string{"b", "c", "a", "d"}) {
		t.Fatalf("addAt past the end must append: %v", l.Ret)
	}
	l = sys.MustInvoke(0, "remove", "c")
	if !core.ValueEqual(l.Ret, []string{"b", "a", "d"}) {
		t.Fatalf("remove must return the updated local list, got %v", l.Ret)
	}
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	if got := sys.MustInvoke(1, "read").Ret; !core.ValueEqual(got, []string{"b", "a", "d"}) {
		t.Fatalf("other replica read %v", got)
	}
	if !sys.Converged() {
		t.Fatal("RGA-addAt must converge")
	}
}

func TestAddAtPreconditions(t *testing.T) {
	sys := runtime.NewSystem(AddAtType{}, runtime.Config{Replicas: 1})
	sys.MustInvoke(0, "addAt", "a", 0)
	if _, err := sys.Invoke(0, "addAt", "a", 1); err == nil {
		t.Fatal("duplicate element must fail")
	}
	if _, err := sys.Invoke(0, "addAt", "b", -1); err == nil {
		t.Fatal("negative index must fail")
	}
	if _, err := sys.Invoke(0, "addAt", Root, 0); err == nil {
		t.Fatal("adding the root must fail")
	}
	if _, err := sys.Invoke(0, "addAt"); err == nil {
		t.Fatal("missing arguments must fail")
	}
	if _, err := sys.Invoke(0, "remove", "ghost"); err == nil {
		t.Fatal("removing an absent element must fail")
	}
	if _, err := sys.Invoke(0, "shuffle"); err == nil {
		t.Fatal("unknown method must fail")
	}
}

// fig14System replays the Figure 14 execution (Appendix C): r3 inserts a and
// broadcasts it; r1 inserts b at the front, removes it, then inserts c at
// index 1 of its local view [a]; r2, which has seen a and b but not the
// removal of b, inserts d at the front, removes a, and inserts e at index 2
// of its local view [d, b]; finally a read that saw everything returns d·e·c,
// a result no index-based global interpretation (Spec(addAt1)/Spec(addAt2))
// can produce, while the local-view specification Spec(addAt3) can.
func fig14System(t *testing.T) (*runtime.System, []string) {
	t.Helper()
	sys := runtime.NewSystem(AddAtType{}, runtime.Config{Replicas: 3})
	a := sys.MustInvoke(2, "addAt", "a", 0) // replica r3
	if err := sys.Deliver(0, a.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(1, a.ID); err != nil {
		t.Fatal(err)
	}
	b := sys.MustInvoke(0, "addAt", "b", 0)  // r1: b·a
	remB := sys.MustInvoke(0, "remove", "b") // r1: a
	c := sys.MustInvoke(0, "addAt", "c", 1)  // r1: a·c
	if err := sys.Deliver(1, b.ID); err != nil {
		t.Fatal(err) // r2 sees b but not its removal
	}
	d := sys.MustInvoke(1, "addAt", "d", 0)  // r2: d·b·a
	remA := sys.MustInvoke(1, "remove", "a") // r2: d·b
	e := sys.MustInvoke(1, "addAt", "e", 2)  // r2: d·b·e
	for _, l := range []*core.Label{remB, c} {
		if err := sys.Deliver(1, l.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []*core.Label{d, remA, e} {
		if err := sys.Deliver(0, l.ID); err != nil {
			t.Fatal(err)
		}
	}
	read := sys.MustInvoke(1, "read")
	return sys, read.Ret.([]string)
}

func TestAddAtFig14SpecSeparation(t *testing.T) {
	sys, got := fig14System(t)
	// The Figure 14 read is d·e·c: d has the largest root-level timestamp,
	// e hangs below b (removed), c hangs below a (removed).
	if !core.ValueEqual(got, []string{"d", "e", "c"}) {
		t.Fatalf("figure 14 read %v, want [d e c]", got)
	}
	h := sys.History()

	opts := core.CheckOptions{Exhaustive: true}
	if res := core.CheckRA(h, spec.AddAt1{}, opts); res.Verdict != core.VerdictInvalid {
		t.Fatalf("history must NOT be RA-linearizable w.r.t. Spec(addAt1): verdict %v", res.Verdict)
	}
	if res := core.CheckRA(h, spec.AddAt2{}, opts); res.Verdict != core.VerdictInvalid {
		t.Fatalf("history must NOT be RA-linearizable w.r.t. Spec(addAt2): verdict %v", res.Verdict)
	}
	d3 := AddAtDescriptor()
	if res := core.CheckRA(h, spec.AddAt3{}, d3.CheckOptions()); res.Verdict != core.VerdictValid {
		t.Fatalf("history must be RA-linearizable w.r.t. Spec(addAt3): %v", res.LastErr)
	}
}

func TestAddAtRandomWorkloadRALinearizableAddAt3(t *testing.T) {
	d := AddAtDescriptor()
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		sys := d.NewOpSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 6; i++ {
			if _, err := d.RandomOp(rng, sys, nil); err != nil {
				t.Fatal(err)
			}
			for rng.Intn(2) == 0 && sys.DeliverRandom(rng) {
			}
		}
		res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: random RGA-addAt history not RA-linearizable w.r.t. Spec(addAt3): %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

func TestAddAtGenerateErrors(t *testing.T) {
	typ := AddAtType{}
	ts := clock.Timestamp{Time: 1, Replica: 0}
	if _, _, err := typ.Generate(NewState(), "addAt", []core.Value{"a", "zero"}, ts); err == nil {
		t.Fatal("mistyped index must fail")
	}
	if _, _, err := typ.Generate(NewState(), "remove", []core.Value{7}, ts); err == nil {
		t.Fatal("mistyped remove must fail")
	}
}

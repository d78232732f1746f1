package wooki

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
	"ralin/internal/spec"
)

func TestWookiSequentialInsertions(t *testing.T) {
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "addBetween", Begin, "a", End)
	sys.MustInvoke(0, "addBetween", "a", "b", End)
	sys.MustInvoke(0, "addBetween", "a", "c", "b")
	if got := sys.MustInvoke(0, "read").Ret; !core.ValueEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("read %v, want [a c b]", got)
	}
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	if got := sys.MustInvoke(1, "read").Ret; !core.ValueEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("other replica read %v, want [a c b]", got)
	}
	if !sys.Converged() {
		t.Fatal("Wooki must converge")
	}
}

func TestWookiConcurrentInsertionsConverge(t *testing.T) {
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "addBetween", Begin, "a", End)
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	// Concurrent insertions into the same gap.
	sys.MustInvoke(0, "addBetween", Begin, "x", "a")
	sys.MustInvoke(1, "addBetween", Begin, "y", "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	r0 := sys.MustInvoke(0, "read").Ret.([]string)
	r1 := sys.MustInvoke(1, "read").Ret.([]string)
	if !core.ValueEqual(r0, r1) {
		t.Fatalf("replicas diverged: %v vs %v", r0, r1)
	}
	if len(r0) != 3 || r0[2] != "a" {
		t.Fatalf("both insertions must land before a: %v", r0)
	}
	if !sys.Converged() {
		t.Fatal("Wooki must converge")
	}
}

func TestWookiRemoveHidesElement(t *testing.T) {
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "addBetween", Begin, "a", End)
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	// Concurrent remove(a) and addBetween(a, b, ◦end): the hidden character
	// still anchors the insertion.
	sys.MustInvoke(0, "remove", "a")
	sys.MustInvoke(1, "addBetween", "a", "b", End)
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"b"}) {
			t.Fatalf("replica %s read %v, want [b]", r, got)
		}
	}
}

func TestWookiPreconditions(t *testing.T) {
	sys := runtime.NewSystem(Type{}, runtime.Config{Replicas: 1})
	if _, err := sys.Invoke(0, "addBetween", End, "x", Begin); err == nil {
		t.Fatal("inverted sentinels must fail")
	}
	if _, err := sys.Invoke(0, "addBetween", Begin, Begin, End); err == nil {
		t.Fatal("inserting a sentinel must fail")
	}
	if _, err := sys.Invoke(0, "addBetween", "ghost", "x", End); err == nil {
		t.Fatal("absent left bound must fail")
	}
	sys.MustInvoke(0, "addBetween", Begin, "a", End)
	if _, err := sys.Invoke(0, "addBetween", Begin, "a", End); err == nil {
		t.Fatal("duplicate element must fail")
	}
	if _, err := sys.Invoke(0, "addBetween", "a", "x", "a"); err == nil {
		t.Fatal("equal bounds must fail")
	}
	sys.MustInvoke(0, "addBetween", "a", "b", End)
	if _, err := sys.Invoke(0, "addBetween", "b", "x", "a"); err == nil {
		t.Fatal("reversed bounds must fail")
	}
	if _, err := sys.Invoke(0, "remove", Begin); err == nil {
		t.Fatal("removing a sentinel must fail")
	}
	if _, err := sys.Invoke(0, "remove", "ghost"); err == nil {
		t.Fatal("removing an absent element must fail")
	}
	if _, err := sys.Invoke(0, "addBetween", Begin, "x"); err == nil {
		t.Fatal("missing argument must fail")
	}
	if _, err := sys.Invoke(0, "remove"); err == nil {
		t.Fatal("missing argument must fail")
	}
	if _, err := sys.Invoke(0, "rotate"); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestWookiIntegrateInsDegreeOrdering(t *testing.T) {
	// Insert into a gap whose existing character has a higher degree: the
	// integrate procedure narrows the window using degrees, reproducing the
	// Woot ordering.
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "addBetween", Begin, "a", End) // degree 1
	sys.MustInvoke(0, "addBetween", Begin, "b", "a") // degree 2, between begin and a
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	// Concurrent insert into the same outer gap at the other replica.
	sys.MustInvoke(1, "addBetween", Begin, "c", "a")
	sys.MustInvoke(0, "addBetween", Begin, "d", "b")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	r0 := sys.MustInvoke(0, "read").Ret.([]string)
	r1 := sys.MustInvoke(1, "read").Ret.([]string)
	if !core.ValueEqual(r0, r1) {
		t.Fatalf("replicas diverged: %v vs %v", r0, r1)
	}
	// Relative orders requested at insertion time are preserved.
	idx := map[string]int{}
	for i, v := range r0 {
		idx[v] = i
	}
	if !(idx["b"] < idx["a"] && idx["c"] < idx["a"] && idx["d"] < idx["b"]) {
		t.Fatalf("insertion bounds violated: %v", r0)
	}
}

func TestWookiAbs(t *testing.T) {
	st := NewState()
	st = st.insertAt(1, WChar{ID: clock.Timestamp{Time: 1, Replica: 0}, Value: "a", Degree: 1, Visible: true})
	st = st.insertAt(2, WChar{ID: clock.Timestamp{Time: 2, Replica: 0}, Value: "b", Degree: 1, Visible: false})
	abs := Abs(st).(spec.ListState)
	if !core.ValueEqual(abs.Elems, []string{Begin, "a", "b", End}) {
		t.Fatalf("Abs elems wrong: %v", abs.Elems)
	}
	if !abs.Tomb["b"] || len(abs.Tomb) != 1 {
		t.Fatalf("Abs tombstones wrong: %v", abs.Tomb)
	}
	if !core.ValueEqual(st.Values(), []string{"a"}) || !core.ValueEqual(st.AllValues(), []string{"a", "b"}) {
		t.Fatal("Values/AllValues wrong")
	}
	if len(StateTimestamps(st)) != 2 {
		t.Fatal("StateTimestamps wrong")
	}
	if st.String() != "◦begin·a·(b)·◦end" {
		t.Fatalf("String wrong: %q", st.String())
	}
	clone := st.CloneState().(State)
	clone[1].Visible = false
	if !st[1].Visible {
		t.Fatal("CloneState must not alias")
	}
}

func TestWookiRandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(61))
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
			t.Fatalf("trial %d: random Wooki history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

func TestWookiRandomWorkloadConverges(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 5; trial++ {
		sys := d.NewOpSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 20; i++ {
			if _, err := d.RandomOp(rng, sys, nil); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				sys.DeliverRandom(rng)
			}
		}
		if err := sys.DeliverAll(); err != nil {
			t.Fatal(err)
		}
		if !sys.Converged() {
			t.Fatalf("trial %d: Wooki replicas did not converge", trial)
		}
	}
}

package harness

import (
	"fmt"
	"strings"

	"ralin/internal/clock"
	"ralin/internal/compose"
	"ralin/internal/core"
	"ralin/internal/crdt/orset"
	"ralin/internal/crdt/rga"
	"ralin/internal/runtime"
	"ralin/internal/spec"
)

// Fig2 reproduces Figure 2: RGA conflict resolution. Starting from the list
// a·b·c, two replicas concurrently insert d and e after c (the insertion with
// the larger timestamp is ordered first), the replicas converge, and removing
// d hides it from subsequent reads.
func Fig2(o Options) Experiment {
	d := rga.Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	var out strings.Builder

	sys.MustInvoke(0, "addAfter", rga.Root, "a")
	sys.MustInvoke(0, "addAfter", "a", "c")
	sys.MustInvoke(0, "addAfter", "a", "b") // tb > tc: b is ordered before c
	must(sys.DeliverAll())
	initial := sys.MustInvoke(1, "read").Ret.([]string)
	fmt.Fprintf(&out, "initial list:            %s\n", strings.Join(initial, "·"))

	sys.MustInvoke(1, "addAfter", "c", "e") // te
	sys.MustInvoke(0, "addAfter", "c", "d") // td > te: d is ordered before e
	r0 := sys.MustInvoke(0, "read").Ret.([]string)
	r1 := sys.MustInvoke(1, "read").Ret.([]string)
	fmt.Fprintf(&out, "before propagation:      r1=%s  r2=%s\n", strings.Join(r0, "·"), strings.Join(r1, "·"))
	must(sys.DeliverAll())
	merged0 := sys.MustInvoke(0, "read").Ret.([]string)
	merged1 := sys.MustInvoke(1, "read").Ret.([]string)
	fmt.Fprintf(&out, "after propagation:       r1=%s  r2=%s\n", strings.Join(merged0, "·"), strings.Join(merged1, "·"))

	sys.MustInvoke(1, "remove", "d")
	must(sys.DeliverAll())
	final := sys.MustInvoke(0, "read").Ret.([]string)
	fmt.Fprintf(&out, "after remove(d):         %s\n", strings.Join(final, "·"))

	converged := core.ValueEqual(merged0, merged1)
	ok := converged &&
		core.ValueEqual(initial, []string{"a", "b", "c"}) &&
		core.ValueEqual(merged0, []string{"a", "b", "c", "d", "e"}) &&
		core.ValueEqual(final, []string{"a", "b", "c", "e"}) &&
		sys.Converged()
	return Experiment{
		ID:       "fig-2",
		Title:    "Figure 2: RGA conflict resolution",
		Claim:    "concurrent addAfter(c,d) and addAfter(c,e) converge to a·b·c·d·e; remove(d) yields a·b·c·e",
		Observed: fmt.Sprintf("converged to %s, after remove(d) %s", strings.Join(merged0, "·"), strings.Join(final, "·")),
		OK:       ok,
		Output:   out.String(),
	}
}

// Fig3 reproduces Figure 3: the history (visibility DAG) of the Figure 2
// execution, checked RA-linearizable with a timestamp-order witness.
func Fig3(o Options) Experiment {
	d := rga.Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "addAfter", rga.Root, "a")
	sys.MustInvoke(0, "addAfter", "a", "c")
	sys.MustInvoke(0, "addAfter", "a", "b")
	must(sys.DeliverAll())
	sys.MustInvoke(1, "addAfter", "c", "e")
	sys.MustInvoke(0, "addAfter", "c", "d")
	must(sys.DeliverAll())
	sys.MustInvoke(1, "remove", "d")
	must(sys.DeliverAll())
	sys.MustInvoke(0, "read")

	h := sys.History()
	res := core.CheckRA(h, d.Spec, o.Tune(d.CheckOptions()))
	var out strings.Builder
	out.WriteString("history (label  origin  sees):\n")
	out.WriteString(h.String())
	if res.Verdict == core.VerdictValid {
		fmt.Fprintf(&out, "RA-linearization (%s):\n  %s\n", res.Strategy, core.FormatLabels(res.Linearization))
	}
	return Experiment{
		ID:       "fig-3",
		Title:    "Figure 3: history of the RGA execution",
		Claim:    "the execution's history is RA-linearizable w.r.t. Spec(RGA)",
		Observed: fmt.Sprintf("RA-linearizable=%v (witness strategy %v)", res.Verdict == core.VerdictValid, res.Strategy),
		OK:       res.Verdict == core.VerdictValid,
		Output:   out.String(),
	}
}

// fig5System builds the Section 2.2 OR-Set execution in which the reads see
// every update yet return {a, b}: each remove observes only the add issued at
// its own replica, so the concurrent adds survive.
func fig5System() (*runtime.System, *core.History) {
	d := orset.Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "add", "b")
	sys.MustInvoke(0, "add", "a")
	sys.MustInvoke(0, "remove", "a")
	sys.MustInvoke(1, "add", "a")
	sys.MustInvoke(1, "add", "b")
	sys.MustInvoke(1, "remove", "b")
	must(sys.DeliverAll())
	sys.MustInvoke(0, "read")
	sys.MustInvoke(1, "read")
	return sys, sys.History()
}

// Fig5a reproduces Figure 5a: the OR-Set execution is not linearizable with
// respect to the plain Set specification, even allowing visibility-based
// linearizations.
func Fig5a(o Options) Experiment {
	_, h := fig5System()
	naive := orset.NaiveSetHistory(h)
	strong := core.CheckStrongLinearizable(naive, spec.Set{}, o.Tune(core.CheckOptions{Exhaustive: true}))
	ra := core.CheckRA(naive, spec.Set{}, o.Tune(core.CheckOptions{Exhaustive: true}))
	var out strings.Builder
	out.WriteString("history (removes treated as plain Set updates):\n")
	out.WriteString(naive.String())
	fmt.Fprintf(&out, "strong linearizability: ok=%v (%s)\n", strong.Verdict == core.VerdictValid, searchEffort(strong))
	fmt.Fprintf(&out, "RA-linearizability w.r.t. Spec(Set): ok=%v complete=%v\n", ra.Verdict == core.VerdictValid, ra.Verdict != core.VerdictUnknown)
	ok := strong.Verdict == core.VerdictInvalid && ra.Verdict == core.VerdictInvalid
	return Experiment{
		ID:       "fig-5a",
		Title:    "Figure 5a: OR-Set execution vs the naive Set specification",
		Claim:    "no linearization of the visibility relation explains the reads returning {a,b} against Spec(Set)",
		Observed: fmt.Sprintf("strong linearizable=%v, RA-linearizable=%v (both complete searches)", strong.Verdict == core.VerdictValid, ra.Verdict == core.VerdictValid),
		OK:       ok,
		Output:   out.String(),
	}
}

// Fig5b reproduces Figure 5b: the same execution becomes RA-linearizable with
// respect to Spec(OR-Set) once the query-update rewriting splits removes into
// readIds · remove.
func Fig5b(o Options) Experiment {
	d := orset.Descriptor()
	_, h := fig5System()
	res := core.CheckRA(h, d.Spec, o.Tune(d.CheckOptions()))
	var out strings.Builder
	out.WriteString("rewritten history:\n")
	if res.Rewritten != nil {
		out.WriteString(res.Rewritten.String())
	}
	if res.Verdict == core.VerdictValid {
		fmt.Fprintf(&out, "RA-linearization (%s):\n  %s\n", res.Strategy, core.FormatLabels(res.Linearization))
	}
	ok := res.Verdict == core.VerdictValid && res.Strategy != nil && *res.Strategy == core.StrategyExecutionOrder
	return Experiment{
		ID:       "fig-5b",
		Title:    "Figure 5b: the same execution after the query-update rewriting",
		Claim:    "the rewritten history is RA-linearizable w.r.t. Spec(OR-Set) in execution order",
		Observed: fmt.Sprintf("RA-linearizable=%v via %v", res.Verdict == core.VerdictValid, res.Strategy),
		OK:       ok,
		Output:   out.String(),
	}
}

// Sec33 reproduces the client-reasoning example of Section 3.3: for the
// program  add(a); rem(a); X=read()  ∥  add(a); Y=read()  the post-condition
// a ∈ X ⇒ a ∈ Y holds in every execution, and every execution is
// RA-linearizable.
func Sec33(o Options) Experiment {
	d := orset.Descriptor()
	program := Program{
		{{Method: "add", Args: []core.Value{"a"}}, {Method: "remove", Args: []core.Value{"a"}}, {Method: "read"}},
		{{Method: "add", Args: []core.Value{"a"}}, {Method: "read"}},
	}
	schedules := 0
	violations := 0
	nonLinearizable := 0
	_, err := ExploreSchedules(d, program, 0, func(run Run) bool {
		schedules++
		x := run.Label(0, 2).Ret.([]string)
		y := run.Label(1, 1).Ret.([]string)
		aInX := contains(x, "a")
		aInY := contains(y, "a")
		if aInX && !aInY {
			violations++
		}
		res := core.CheckRA(run.System.History(), d.Spec, o.Tune(d.CheckOptions()))
		if res.Verdict != core.VerdictValid {
			nonLinearizable++
		}
		return true
	})
	observed := fmt.Sprintf("%d schedules explored, %d post-condition violations, %d non-RA-linearizable histories",
		schedules, violations, nonLinearizable)
	output := fmt.Sprintf("program: r1: add(a)·rem(a)·X=read   r2: add(a)·Y=read\npost-condition: a∈X ⇒ a∈Y\n%s", observed)
	ok := err == nil && schedules > 0 && violations == 0 && nonLinearizable == 0
	if err != nil {
		output += "\nerror: " + err.Error()
	}
	return Experiment{
		ID:       "sec-3.3",
		Title:    "Section 3.3: client reasoning over RA-linearizations",
		Claim:    "a ∈ X ⇒ a ∈ Y holds in every execution of the two-replica OR-Set program",
		Observed: observed,
		OK:       ok,
		Output:   output,
	}
}

// Fig8 reproduces Figure 8: an RGA execution whose execution-order
// linearization is not an RA-linearization while the timestamp-order one is.
func Fig8(o Options) Experiment {
	d := rga.Descriptor()
	scripted := clock.NewScripted(
		clock.Timestamp{Time: 2, Replica: 1}, // tsb (generated first)
		clock.Timestamp{Time: 1, Replica: 0}, // tsa < tsb (generated second)
		clock.Timestamp{Time: 3, Replica: 1}, // tsc
	)
	sys := d.NewOpSystem(runtime.Config{Replicas: 2, Clock: scripted})
	sys.MustInvoke(1, "addAfter", rga.Root, "b") // ℓ2
	sys.MustInvoke(0, "addAfter", rga.Root, "a") // ℓ1, smaller timestamp
	must(sys.DeliverAll())
	read := sys.MustInvoke(0, "read") // ℓ4 ⇒ b·a
	sys.MustInvoke(1, "addAfter", "b", "c")

	h := sys.History()
	eo := core.CheckRA(h, d.Spec, o.Tune(core.CheckOptions{Strategies: []core.Strategy{core.StrategyExecutionOrder}}))
	to := core.CheckRA(h, d.Spec, o.Tune(core.CheckOptions{Strategies: []core.Strategy{core.StrategyTimestampOrder}}))
	var out strings.Builder
	fmt.Fprintf(&out, "read returned %s\n", core.FormatValue(read.Ret))
	fmt.Fprintf(&out, "execution-order linearization accepted: %v\n", eo.Verdict == core.VerdictValid)
	fmt.Fprintf(&out, "timestamp-order linearization accepted: %v\n", to.Verdict == core.VerdictValid)
	if to.Verdict == core.VerdictValid {
		fmt.Fprintf(&out, "timestamp-order witness: %s\n", core.FormatLabels(to.Linearization))
	}
	ok := eo.Verdict != core.VerdictValid && to.Verdict == core.VerdictValid && core.ValueEqual(read.Ret, []string{"b", "a"})
	return Experiment{
		ID:       "fig-8",
		Title:    "Figure 8: execution-order vs timestamp-order linearizations for RGA",
		Claim:    "the execution-order linearization fails while the timestamp-order one is an RA-linearization",
		Observed: fmt.Sprintf("execution-order ok=%v, timestamp-order ok=%v", eo.Verdict == core.VerdictValid, to.Verdict == core.VerdictValid),
		OK:       ok,
		Output:   out.String(),
	}
}

// Fig9 reproduces Figure 9: a composition of two OR-Sets in which specific
// per-object RA-linearizations cannot be combined into a global one, yet the
// composed history is RA-linearizable (Theorem 5.3).
func Fig9(o Options) Experiment {
	objects := []compose.Object{
		{Name: "o1", Descriptor: orset.Descriptor()},
		{Name: "o2", Descriptor: orset.Descriptor()},
	}
	sys := compose.MustNewSystem(compose.Unrestricted, 2, objects...)
	sys.MustInvoke("o1", 0, "add", "d")
	sys.MustInvoke("o2", 0, "add", "a")
	sys.MustInvoke("o2", 1, "add", "b")
	sys.MustInvoke("o1", 1, "add", "c")

	h := sys.History()
	specC := compose.SpecOf(sys)
	opts := compose.CheckOptions(sys)
	res := core.CheckRA(h, specC, o.Tune(opts))

	rew, err := core.RewriteHistory(h, opts.Rewriting)
	combinedBad, combinedGood := false, false
	if err == nil {
		find := func(object, elem string) *core.Label {
			for _, l := range rew.History.Labels() {
				if l.Object == object && l.Method == "add" && l.Args[0] == elem {
					return l
				}
			}
			return nil
		}
		bad := map[string][]*core.Label{
			"o1": {find("o1", "c"), find("o1", "d")},
			"o2": {find("o2", "a"), find("o2", "b")},
		}
		good := map[string][]*core.Label{
			"o1": {find("o1", "d"), find("o1", "c")},
			"o2": {find("o2", "a"), find("o2", "b")},
		}
		combinedBad, _, _ = compose.CombinePerObject(rew.History, bad, specC)
		combinedGood, _, _ = compose.CombinePerObject(rew.History, good, specC)
	}
	var out strings.Builder
	out.WriteString("composed history:\n")
	out.WriteString(h.String())
	fmt.Fprintf(&out, "composed history RA-linearizable: %v\n", res.Verdict == core.VerdictValid)
	fmt.Fprintf(&out, "per-object linearizations o1: c·d, o2: a·b combine: %v\n", combinedBad)
	fmt.Fprintf(&out, "per-object linearizations o1: d·c, o2: a·b combine: %v\n", combinedGood)
	ok := res.Verdict == core.VerdictValid && !combinedBad && combinedGood && err == nil
	return Experiment{
		ID:       "fig-9",
		Title:    "Figure 9: composition of two OR-Sets (execution-order objects)",
		Claim:    "the chosen per-object linearizations do not combine, yet the composition is RA-linearizable",
		Observed: fmt.Sprintf("composition RA-linearizable=%v, bad combination=%v, good combination=%v", res.Verdict == core.VerdictValid, combinedBad, combinedGood),
		OK:       ok,
		Output:   out.String(),
	}
}

// Fig10 reproduces Figure 10: two RGAs under the unrestricted composition ⊗
// produce a history that is not RA-linearizable, while the shared timestamp
// generator composition ⊗ts rules the conflict out (Theorem 5.5).
func Fig10(o Options) Experiment {
	runOnce := func(mode compose.Mode) (*compose.System, *core.History) {
		var o1Clock clock.Generator
		if mode == compose.Unrestricted {
			o1Clock = clock.NewScripted(
				clock.Timestamp{Time: 2, Replica: 1},
				clock.Timestamp{Time: 1, Replica: 2},
			)
		}
		sys := compose.MustNewSystem(mode, 3,
			compose.Object{Name: "o1", Descriptor: rga.Descriptor(), Clock: o1Clock},
			compose.Object{Name: "o2", Descriptor: rga.Descriptor()},
		)
		c := sys.MustInvoke("o2", 0, "addAfter", rga.Root, "c")
		b := sys.MustInvoke("o1", 1, "addAfter", rga.Root, "b")
		d := sys.MustInvoke("o2", 1, "addAfter", rga.Root, "d")
		sys.MustInvoke("o2", 2, "addAfter", rga.Root, "e")
		sys.MustInvoke("o1", 2, "addAfter", rga.Root, "a")
		must(sys.Deliver("o2", 2, c.ID))
		must(sys.Deliver("o2", 2, d.ID))
		must(sys.Deliver("o1", 2, b.ID))
		sys.MustInvoke("o2", 2, "read")
		sys.MustInvoke("o1", 2, "read")
		return sys, sys.History()
	}
	unrSys, unrHist := runOnce(compose.Unrestricted)
	unr := core.CheckRA(unrHist, compose.SpecOf(unrSys), o.Tune(compose.CheckOptions(unrSys)))
	sharedSys, sharedHist := runOnce(compose.SharedTimestamps)
	shared := core.CheckRA(sharedHist, compose.SpecOf(sharedSys), o.Tune(compose.CheckOptions(sharedSys)))

	var out strings.Builder
	out.WriteString("history under ⊗ (independent timestamps):\n")
	out.WriteString(unrHist.String())
	fmt.Fprintf(&out, "RA-linearizable under ⊗:   %v (complete=%v)\n", unr.Verdict == core.VerdictValid, unr.Verdict != core.VerdictUnknown)
	fmt.Fprintf(&out, "RA-linearizable under ⊗ts: %v\n", shared.Verdict == core.VerdictValid)
	ok := unr.Verdict == core.VerdictInvalid && shared.Verdict == core.VerdictValid
	return Experiment{
		ID:       "fig-10",
		Title:    "Figure 10: composition of two RGAs (timestamp-order objects)",
		Claim:    "the history is not RA-linearizable under ⊗ but the shared-timestamp composition ⊗ts restores RA-linearizability",
		Observed: fmt.Sprintf("⊗ RA-linearizable=%v, ⊗ts RA-linearizable=%v", unr.Verdict == core.VerdictValid, shared.Verdict == core.VerdictValid),
		OK:       ok,
		Output:   out.String(),
	}
}

// Fig13 reproduces Figure 13 (Appendix A): the step-by-step evolution of the
// global configuration of an RGA deployment, showing the per-replica label
// sets, the replica state and the growth of the visibility relation.
func Fig13(o Options) Experiment {
	d := rga.Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	var out strings.Builder
	snapshot := func(caption string) {
		seen := sys.Seen(0)
		fmt.Fprintf(&out, "%s\n", caption)
		fmt.Fprintf(&out, "  |G(r1).L| = %d   G(r1).state = %s\n", len(seen), sys.ReplicaState(0))
		visEdges := 0
		h := sys.History()
		for _, l := range h.Labels() {
			visEdges += len(h.VisibleTo(l))
		}
		fmt.Fprintf(&out, "  |G.vis| = %d edges\n", visEdges)
	}
	a := sys.MustInvoke(0, "addAfter", rga.Root, "a")
	b := sys.MustInvoke(1, "addAfter", rga.Root, "b")
	must(sys.Deliver(0, b.ID))
	must(sys.Deliver(1, a.ID))
	sys.MustInvoke(0, "addAfter", "b", "c")
	dd := sys.MustInvoke(1, "addAfter", "b", "d")
	snapshot("(a) before the effector of addAfter(b,d) reaches r1:")
	seenBefore := len(sys.Seen(0))
	must(sys.Deliver(0, dd.ID))
	snapshot("(b) after delivering addAfter(b,d) at r1:")
	seenAfter := len(sys.Seen(0))
	sys.MustInvoke(0, "remove", "b")
	snapshot("(c) after r1 executes remove(b):")
	h := sys.History()
	removeLabel := h.Labels()[len(h.Labels())-1]
	ok := seenAfter == seenBefore+1 &&
		len(h.VisibleTo(removeLabel)) == 4 &&
		core.ValueEqual(sys.ReplicaState(0).(rga.State).Visible(), []string{"d", "c", "a"})
	return Experiment{
		ID:       "fig-13",
		Title:    "Figure 13: RGA operational semantics, step by step",
		Claim:    "delivery extends the replica's label set without changing vis; a new local operation sees all four prior updates",
		Observed: fmt.Sprintf("r1 label set grew %d→%d on delivery; remove(b) sees %d operations", seenBefore, seenAfter, len(h.VisibleTo(removeLabel))),
		OK:       ok,
		Output:   out.String(),
	}
}

// Fig14 reproduces Figure 14 (Appendix C): an execution of the RGA variant
// with an addAt interface whose history is RA-linearizable with respect to
// Spec(addAt3) but not with respect to Spec(addAt1) or Spec(addAt2).
func Fig14(o Options) Experiment {
	sys := runtime.NewSystem(rga.AddAtType{}, runtime.Config{Replicas: 3})
	a := sys.MustInvoke(2, "addAt", "a", 0)
	must(sys.Deliver(0, a.ID))
	must(sys.Deliver(1, a.ID))
	b := sys.MustInvoke(0, "addAt", "b", 0)
	remB := sys.MustInvoke(0, "remove", "b")
	c := sys.MustInvoke(0, "addAt", "c", 1)
	must(sys.Deliver(1, b.ID))
	dd := sys.MustInvoke(1, "addAt", "d", 0)
	remA := sys.MustInvoke(1, "remove", "a")
	e := sys.MustInvoke(1, "addAt", "e", 2)
	for _, l := range []*core.Label{remB, c} {
		must(sys.Deliver(1, l.ID))
	}
	for _, l := range []*core.Label{dd, remA, e} {
		must(sys.Deliver(0, l.ID))
	}
	read := sys.MustInvoke(1, "read")
	h := sys.History()

	opts := core.CheckOptions{Exhaustive: true}
	r1 := core.CheckRA(h, spec.AddAt1{}, o.Tune(opts))
	r2 := core.CheckRA(h, spec.AddAt2{}, o.Tune(opts))
	d3 := rga.AddAtDescriptor()
	r3 := core.CheckRA(h, spec.AddAt3{}, o.Tune(d3.CheckOptions()))

	var out strings.Builder
	fmt.Fprintf(&out, "final read: %s\n", core.FormatValue(read.Ret))
	out.WriteString("history:\n")
	out.WriteString(h.String())
	fmt.Fprintf(&out, "RA-linearizable w.r.t. Spec(addAt1): %v (complete=%v)\n", r1.Verdict == core.VerdictValid, r1.Verdict != core.VerdictUnknown)
	fmt.Fprintf(&out, "RA-linearizable w.r.t. Spec(addAt2): %v (complete=%v)\n", r2.Verdict == core.VerdictValid, r2.Verdict != core.VerdictUnknown)
	fmt.Fprintf(&out, "RA-linearizable w.r.t. Spec(addAt3): %v\n", r3.Verdict == core.VerdictValid)
	ok := core.ValueEqual(read.Ret, []string{"d", "e", "c"}) &&
		r1.Verdict == core.VerdictInvalid && r2.Verdict == core.VerdictInvalid && r3.Verdict == core.VerdictValid
	return Experiment{
		ID:       "fig-14",
		Title:    "Figure 14: the addAt interface separates the index-based list specifications",
		Claim:    "the read d·e·c is not explainable by Spec(addAt1)/Spec(addAt2) but is by Spec(addAt3)",
		Observed: fmt.Sprintf("read=%s, addAt1 ok=%v, addAt2 ok=%v, addAt3 ok=%v", core.FormatValue(read.Ret), r1.Verdict == core.VerdictValid, r2.Verdict == core.VerdictValid, r3.Verdict == core.VerdictValid),
		OK:       ok,
		Output:   out.String(),
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

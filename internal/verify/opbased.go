package verify

import (
	"fmt"
	"math/rand"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/runtime"
)

// CheckOpBased checks the Section 4 proof obligations (Commutativity,
// Refinement or Refinement_ts, convergence) for an operation-based CRDT by
// exploring random executions of its operational semantics.
func CheckOpBased(d crdt.Descriptor, opts Options) Report {
	opts.fill()
	if d.OpType == nil {
		return Report{CRDT: d.Name, Obligations: []Obligation{{
			Name:       "setup",
			Violations: []string{"descriptor is not operation-based"},
		}}}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	commutativity := newObligation("Commutativity")
	refinementEff := newObligation(refinementName(d) + " (effectors)")
	refinementGen := newObligation(refinementName(d) + " (generators)")
	convergence := newObligation("Convergence")

	for trial := 0; trial < opts.Trials; trial++ {
		sys := d.NewOpSystem(runtime.Config{Replicas: opts.Replicas, RecordEvents: true})
		for i := 0; i < opts.Ops; i++ {
			if _, err := d.RandomOp(rng, sys, opts.Elems); err != nil {
				// Workload generators respect preconditions; an error here is
				// a genuine defect worth reporting.
				refinementGen.check(false, "workload operation failed: %v", err)
				continue
			}
			for rng.Intn(3) == 0 && sys.DeliverRandom(rng) {
			}
		}
		if err := sys.DeliverAll(); err != nil {
			convergence.check(false, "delivery failed: %v", err)
			continue
		}
		convergence.check(sys.Converged(), "replicas diverged after full delivery")

		events := sys.Events()
		hist := sys.History()
		checkOpCommutativity(d, sys, hist, events, commutativity)
		checkOpRefinement(d, events, refinementEff, refinementGen)
	}

	return Report{CRDT: d.Name, Obligations: []Obligation{
		commutativity.build(),
		refinementEff.build(),
		refinementGen.build(),
		convergence.build(),
	}}
}

func refinementName(d crdt.Descriptor) string {
	if d.Lin == crdt.TimestampOrder {
		return "Refinement_ts"
	}
	return "Refinement"
}

// checkOpCommutativity replays the execution's events and, at every point
// where two concurrent effectors are simultaneously deliverable at a replica,
// checks that applying them in either order yields the same state.
func checkOpCommutativity(d crdt.Descriptor, sys *runtime.System, hist *core.History, events []runtime.Event, ob *obligationBuilder) {
	// Identify the non-query labels and their visibility predecessors.
	type opInfo struct {
		label *core.Label
		eff   runtime.Effector
		preds []uint64
	}
	var ops []opInfo
	for _, l := range hist.Labels() {
		if l.IsQuery() {
			continue
		}
		var preds []uint64
		for _, p := range hist.VisibleTo(l) {
			if !p.IsQuery() {
				preds = append(preds, p.ID)
			}
		}
		ops = append(ops, opInfo{label: l, eff: sys.EffectorOf(l.ID), preds: preds})
	}
	// Replay per-replica seen sets along the event log.
	seen := map[clock.ReplicaID]map[uint64]bool{}
	stateAt := map[clock.ReplicaID]runtime.State{}
	for _, r := range sys.Replicas() {
		seen[r] = map[uint64]bool{}
		stateAt[r] = d.OpType.Init()
	}
	checkPoint := func(replica clock.ReplicaID) {
		st := stateAt[replica]
		sn := seen[replica]
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				a, b := ops[i], ops[j]
				if !hist.Concurrent(a.label.ID, b.label.ID) {
					continue
				}
				if sn[a.label.ID] || sn[b.label.ID] {
					continue
				}
				if !allSeen(sn, a.preds) || !allSeen(sn, b.preds) {
					continue
				}
				ab := b.eff.Apply(a.eff.Apply(st))
				ba := a.eff.Apply(b.eff.Apply(st))
				ob.check(ab.EqualState(ba),
					"effectors of %v and %v do not commute on state %s: %s vs %s",
					a.label, b.label, st, ab, ba)
			}
		}
	}
	for _, r := range sys.Replicas() {
		checkPoint(r)
	}
	for _, ev := range events {
		if ev.Label != nil {
			seen[ev.Replica][ev.Label.ID] = true
		}
		stateAt[ev.Replica] = ev.Post
		checkPoint(ev.Replica)
	}
}

func allSeen(seen map[uint64]bool, ids []uint64) bool {
	for _, id := range ids {
		if !seen[id] {
			return false
		}
	}
	return true
}

// checkOpRefinement checks that every effector application and every query
// generator recorded in the event log is simulated by the corresponding
// specification operation through the refinement mapping.
func checkOpRefinement(d crdt.Descriptor, events []runtime.Event, effOb, genOb *obligationBuilder) {
	for _, ev := range events {
		if ev.Label == nil {
			continue
		}
		l := ev.Label
		qry, upd, err := rewriteParts(d, l)
		if err != nil {
			genOb.check(false, "rewriting %v failed: %v", l, err)
			continue
		}
		switch {
		case l.IsQuery():
			if ev.Kind != runtime.EventGenerator {
				continue
			}
			genOb.check(simulatedQuery(d, ev.Pre, qry),
				"query %v is not simulated by %s on abstract state %s",
				l, d.Spec.Name(), d.Abs(ev.Pre))
		default:
			// Generator events of query-updates also discharge the
			// "simulating generators" obligation for their query part.
			if ev.Kind == runtime.EventGenerator && l.IsQueryUpdate() && qry != nil {
				genOb.check(simulatedQuery(d, ev.Pre, qry),
					"query part of %v is not simulated by %s on abstract state %s",
					l, d.Spec.Name(), d.Abs(ev.Pre))
			}
			// Effector simulation; for timestamp-order objects only when the
			// operation's timestamp is not dominated by the state.
			if d.Lin == crdt.TimestampOrder && dominated(d, ev.Pre, l) {
				continue
			}
			effOb.check(simulatedUpdate(d, ev.Pre, ev.Post, upd),
				"effector of %v is not simulated by %s: abs(pre)=%s abs(post)=%s",
				l, d.Spec.Name(), d.Abs(ev.Pre), d.Abs(ev.Post))
		}
	}
}

// rewriteParts returns the query and update parts of γ(ℓ) (either may be nil).
func rewriteParts(d crdt.Descriptor, l *core.Label) (qry, upd *core.Label, err error) {
	rw := d.Rewriting
	if rw == nil {
		rw = core.IdentityRewriting{}
	}
	imgs, err := rw.Rewrite(l)
	if err != nil {
		return nil, nil, err
	}
	switch len(imgs) {
	case 1:
		if imgs[0].IsQuery() {
			return imgs[0], nil, nil
		}
		return nil, imgs[0], nil
	case 2:
		return imgs[0], imgs[1], nil
	default:
		return nil, nil, fmt.Errorf("image of %v has %d labels", l, len(imgs))
	}
}

// simulatedQuery reports whether the query label is admitted by the
// specification in the abstract image of the state and leaves it unchanged.
func simulatedQuery(d crdt.Descriptor, pre runtime.State, qry *core.Label) bool {
	if qry == nil {
		return true
	}
	absPre := d.Abs(pre)
	for _, next := range d.Spec.StepAppend(nil, absPre, qry) {
		if next.EqualAbs(absPre) {
			return true
		}
	}
	return false
}

// simulatedUpdate reports whether applying the update label in the abstract
// image of the pre-state can reach the abstract image of the post-state.
func simulatedUpdate(d crdt.Descriptor, pre, post runtime.State, upd *core.Label) bool {
	if upd == nil {
		return true
	}
	absPost := d.Abs(post)
	for _, next := range d.Spec.StepAppend(nil, d.Abs(pre), upd) {
		if next.EqualAbs(absPost) {
			return true
		}
	}
	return false
}

// dominated reports whether the state stores a timestamp larger than the
// label's (the side condition of Refinement_ts).
func dominated(d crdt.Descriptor, st runtime.State, l *core.Label) bool {
	if d.StateTimestamps == nil || l.TS.IsBottom() {
		return false
	}
	for _, ts := range d.StateTimestamps(st) {
		if l.TS.Less(ts) {
			return true
		}
	}
	return false
}

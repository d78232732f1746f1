package ralin

import (
	"math/rand"
	"slices"
	"testing"

	"ralin/internal/compose"
	"ralin/internal/core"
	"ralin/internal/crdt/counter"
	"ralin/internal/crdt/orset"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
)

// TestStepAppendIgnoresIdentity pins core.Spec's identity contract, which the
// search's twin reduction rests on: for every registry specification and for
// compose.Spec, a label and a copy of it that differs only in ID, Origin and
// GenSeq step every state to equal successors. The labels are the rewritten
// labels of random histories, stepped from every state a witness's update
// projection passes through, so both admitted and rejected transitions are
// covered.
func TestStepAppendIgnoresIdentity(t *testing.T) {
	for _, d := range registry.All() {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := harness.DefaultWorkload()
			cfg.Seed = seed
			h, err := harness.RunRandom(d, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", d.Name, seed, err)
			}
			checkIdentityBlind(t, d.Name, d.Spec, h, d.CheckOptions())
		}
	}
	objs := []compose.Object{
		{Name: "set", Descriptor: orset.Descriptor()},
		{Name: "ctr", Descriptor: counter.Descriptor()},
	}
	for seed := int64(1); seed <= 8; seed++ {
		sys := compose.MustNewSystem(compose.Unrestricted, 2, objs...)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			if _, err := sys.RandomOp(rng, []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				sys.DeliverRandom(rng)
			}
		}
		checkIdentityBlind(t, "compose", compose.SpecOf(sys), sys.History(), compose.CheckOptions(sys))
	}
}

// checkIdentityBlind steps every rewritten label of h, and a copy with new
// ID, Origin and GenSeq, from each state the update projection of the check's
// witness reaches (the initial state alone when there is none), and fails
// unless both give equal successor lists.
func checkIdentityBlind(t *testing.T, name string, sp core.Spec, h *core.History, opts core.CheckOptions) {
	t.Helper()
	rew, _, err := core.RewriteForCheck(h, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cur := []core.AbsState{sp.Init()}
	states := cur
	for _, l := range core.CheckRA(h, sp, opts).Linearization {
		if !l.IsUpdate() {
			continue
		}
		var next []core.AbsState
		for _, phi := range cur {
			next = sp.StepAppend(next, phi, l)
		}
		if cur = dedupEqual(next); len(cur) == 0 {
			t.Fatalf("%s: witness update %v not admitted", name, l)
		}
		states = append(states, cur...)
	}
	for _, phi := range states {
		for _, l := range rew.History.Labels() {
			moved := l.Clone()
			moved.ID += 1 << 20
			moved.Origin += 3
			moved.GenSeq += 1 << 20
			want := sp.StepAppend(nil, phi, l)
			got := sp.StepAppend(nil, phi, moved)
			if len(got) != len(want) {
				t.Fatalf("%s: %v from %v has %d successors, %d once ID/Origin/GenSeq change",
					name, l, phi, len(want), len(got))
			}
			for k := range want {
				if !got[k].EqualAbs(want[k]) {
					t.Fatalf("%s: %v from %v: successor %d is %v, %v once ID/Origin/GenSeq change",
						name, l, phi, k, want[k], got[k])
				}
			}
		}
	}
}

// dedupEqual removes duplicates from a set of states by EqualAbs, keeping
// first occurrences.
func dedupEqual(states []core.AbsState) []core.AbsState {
	var out []core.AbsState
	for _, phi := range states {
		if !slices.ContainsFunc(out, phi.EqualAbs) {
			out = append(out, phi)
		}
	}
	return out
}

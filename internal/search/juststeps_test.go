package search_test

import (
	"slices"
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/search"
)

// monitorJustSteps monitors each history op by op on a session of its own
// and returns every prefix verdict, the summed justification steps and the
// number of prefixes.
func monitorJustSteps(t *testing.T, hs []*core.History, sp core.Spec, opts core.CheckOptions) (verdicts []core.Verdict, steps, prefixes int) {
	t.Helper()
	for _, h := range hs {
		rep, err := harness.MonitorHistory(h, sp, opts, harness.Options{})
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, rep.Verdicts...)
		steps += rep.Stats.JustSteps
		prefixes += len(rep.Verdicts)
	}
	return verdicts, steps, prefixes
}

// TestJustStepsOnORSetStream pins core.Stats.JustSteps on a fixed OR-Set
// monitor stream — four 256-op histories drawn as the monitor-orset benchmark
// workload draws them — with the replay's justification cache and without
// it. The counter is deterministic, so the pins move only when the replay's
// justification work does; the verdicts must not move at all, and the cache
// must cut the steps at least fivefold.
func TestJustStepsOnORSetStream(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	var hs []*core.History
	for seed := int64(1); seed <= 4; seed++ {
		cfg := harness.WorkloadConfig{Seed: seed, Ops: 256, Replicas: 3, Elems: []string{"a", "b", "c"}, DeliveryProb: 40}
		h, err := harness.RunRandom(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	cached, withCache, prefixes := monitorJustSteps(t, hs, d.Spec, d.CheckOptions())
	search.SetNoJustCache(true)
	defer search.SetNoJustCache(false)
	plain, without, _ := monitorJustSteps(t, hs, d.Spec, d.CheckOptions())
	if !slices.Equal(cached, plain) {
		t.Fatal("the justification cache changed a prefix verdict")
	}
	const wantWith, wantWithout = 1639, 26632
	if withCache != wantWith || without != wantWithout {
		t.Fatalf("over %d prefixes: %d justification steps with the cache, %d without; pinned %d and %d",
			prefixes, withCache, without, wantWith, wantWithout)
	}
	if 5*withCache > without {
		t.Fatalf("the cache cut justification steps only from %d to %d", without, withCache)
	}
}

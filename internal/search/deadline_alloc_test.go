package search_test

import (
	"context"
	"testing"
	"time"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/search"
)

// deadlineRecheckAllocs is the measured allocation count of one warm
// re-check under a live deadline: the context.AfterFunc registration that
// watches the deadline (its callback record, the closure over the searcher,
// and the stop function). Everything else — the searcher with its plan and
// memo table — comes from the session's pool.
const deadlineRecheckAllocs = 3

// TestSessionRecheckUnderDeadlineAllocs pins the cost of watching a
// deadline: a warm re-check on a shared session under a far deadline
// allocates only the deadline watch, and no more than the same re-check
// without a context (0, as BenchmarkSessionRecheck/session asserts) plus that
// watch: the searcher must come back to the pool whenever the deadline
// did not fire.
func TestSessionRecheckUnderDeadlineAllocs(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	h, err := harness.RunRandom(d, harness.WorkloadConfig{
		Seed: 7, Ops: 8, Replicas: 3,
		Elems: []string{"a", "b", "c"}, DeliveryProb: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	sess := search.NewSession()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		max  float64
	}{
		{"no-context", nil, 0},
		{"far-deadline", ctx, deadlineRecheckAllocs},
	} {
		opts := d.CheckOptions()
		opts.Strategies = nil
		opts.Context = tc.ctx
		check := func() {
			if res := core.CheckRAWith(h, d.Spec, opts, sess); res.Verdict != core.VerdictValid {
				t.Fatalf("%s: history must be RA-linearizable: %v", tc.name, res.LastErr)
			}
		}
		// Two warm-up checks fill the session's pools and its transition
		// cache, as in BenchmarkSessionRecheck.
		check()
		check()
		if got := testing.AllocsPerRun(50, check); got > tc.max {
			t.Errorf("%s: warm re-check allocates %v per check, want <= %v", tc.name, got, tc.max)
		}
	}
}

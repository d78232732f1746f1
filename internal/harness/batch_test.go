package harness

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/spec"
)

// normalizeBatch strips the fields that legitimately differ between a
// shared-session and a fresh-per-history run (pool geometry and session
// statistics — including the plan-pool and history-record counters, which
// exist to differ between the two pipelines, and the split of transitions
// between live steps and table replays, whose sum stays); everything else
// must be byte-identical.
func normalizeBatch(hc HistoryCheck) HistoryCheck {
	hc.BatchWorkers = 0
	hc.InternedStates = 0
	hc.PlanReuses = 0
	hc.RewriteHits = 0
	hc.Stats = hc.Stats.FoldSteps()
	return hc
}

// incsHistory builds k concurrent inc() updates plus one read seeing all of
// them and returning ret: RA-linearizable iff ret == k.
func incsHistory(k int, ret int64) *core.History {
	h := core.NewHistory()
	for i := 1; i <= k; i++ {
		h.MustAdd(&core.Label{ID: uint64(i), Method: "inc", Kind: core.KindUpdate, GenSeq: uint64(i)})
	}
	r := h.MustAdd(&core.Label{ID: uint64(k + 1), Method: "read", Ret: ret, Kind: core.KindQuery, GenSeq: uint64(k + 1)})
	for i := 1; i <= k; i++ {
		h.MustAddVis(uint64(i), r.ID)
	}
	return h
}

// TestBatchSharedSessionDifferential is the cross-history differential: for
// every CRDT descriptor, a concurrent batch over one shared engine session
// must produce exactly the verdicts, strategies and search statistics of the
// sequential fresh-per-history pipeline (node counts are deterministic on
// both sides).
func TestBatchSharedSessionDifferential(t *testing.T) {
	for _, d := range registry.All() {
		check := d.CheckOptions()
		cfg := WorkloadConfig{Seed: 9, Ops: 6, Replicas: 2, Elems: []string{"a", "b"}, DeliveryProb: 40}
		shared, err := CheckGeneratedAgainst(d.Name, d.Spec, check, RandomGenerator{Desc: d, Cfg: cfg}, 6, Options{BatchWorkers: 4})
		if err != nil {
			t.Fatalf("%s shared: %v", d.Name, err)
		}
		fresh, err := CheckGeneratedAgainst(d.Name, d.Spec, check, RandomGenerator{Desc: d, Cfg: cfg}, 6, Options{BatchWorkers: 1, FreshSessions: true})
		if err != nil {
			t.Fatalf("%s fresh: %v", d.Name, err)
		}
		if !reflect.DeepEqual(normalizeBatch(shared), normalizeBatch(fresh)) {
			t.Errorf("%s: shared-session batch diverged from fresh-per-history:\nshared: %+v\nfresh:  %+v",
				d.Name, normalizeBatch(shared), normalizeBatch(fresh))
		}
		if shared.BatchWorkers != 4 || fresh.BatchWorkers != 1 {
			t.Errorf("%s: pool geometry not surfaced: shared=%d fresh=%d",
				d.Name, shared.BatchWorkers, fresh.BatchWorkers)
		}
	}
}

// TestBatchExhaustiveDifferential forces the exhaustive engine on every trial
// (no constructive strategies), so the shared searcher pool (plans, memo
// tables, transition tables, scratch) is actually exercised by each history
// — and must still match fresh state exactly, node count for node count.
func TestBatchExhaustiveDifferential(t *testing.T) {
	for _, name := range []string{"OR-Set", "RGA", "Counter"} {
		d, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		check := d.CheckOptions()
		check.Strategies = nil
		check.DebugMemo = true // hash-compaction collisions panic instead of mis-pruning
		cfg := WorkloadConfig{Seed: 21, Ops: 6, Replicas: 2, Elems: []string{"a", "b"}, DeliveryProb: 40}
		shared, err := CheckGeneratedAgainst(d.Name, d.Spec, check, RandomGenerator{Desc: d, Cfg: cfg}, 5, Options{BatchWorkers: 3})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := CheckGeneratedAgainst(d.Name, d.Spec, check, RandomGenerator{Desc: d, Cfg: cfg}, 5, Options{BatchWorkers: 1, FreshSessions: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeBatch(shared), normalizeBatch(fresh)) {
			t.Errorf("%s: exhaustive shared batch diverged:\nshared: %+v\nfresh:  %+v",
				name, normalizeBatch(shared), normalizeBatch(fresh))
		}
		if shared.Nodes == 0 {
			t.Errorf("%s: exhaustive batch explored no nodes — the engine never ran", name)
		}
		if shared.InternedStates == 0 {
			t.Errorf("%s: shared session assigned no state IDs", name)
		}
		if shared.PlanReuses == 0 {
			t.Errorf("%s: shared session reused no pooled plans", name)
		}
		if fresh.PlanReuses != 0 || fresh.RewriteHits != 0 {
			t.Errorf("%s: fresh sessions must not report session amortizations: %+v", name, fresh)
		}
	}
}

// TestBatchPolarityDifferentialAllDescriptors is the cross-history, cross-
// polarity differential for the session searcher pool and history records: for
// every CRDT descriptor, a batch mixing RA-linearizable histories, corrupted
// (refuted) variants, and re-checked duplicates — the history records' hit
// case — must produce byte-identical verdicts and search statistics through a
// shared session (searcher pool + history records + debug memo) and through fresh
// per-history state.
func TestBatchPolarityDifferentialAllDescriptors(t *testing.T) {
	for _, d := range registry.All() {
		opts := d.CheckOptions()
		opts.Strategies = nil // force the engine so plans and rewrites are exercised
		opts.DebugMemo = true
		var hs []*core.History
		for trial := 0; trial < 3; trial++ {
			cfg := WorkloadConfig{Seed: int64(500*trial + 31), Ops: 5, Replicas: 2, Elems: []string{"a", "b"}, DeliveryProb: 40}
			h, err := RunRandom(d, cfg)
			if err != nil {
				t.Fatalf("%s workload: %v", d.Name, err)
			}
			hs = append(hs, h)
			if bad := corruptQueryRet(h, int64(trial)); bad != nil {
				hs = append(hs, bad)
			}
		}
		// Re-check every history a second time through the same batch: on the
		// shared side the second occurrence must be served by its history
		// record (for descriptors with a real rewriting) and still match fresh
		// state.
		hs = append(hs, hs...)
		shared, err := CheckHistoryBatch(d.Name, d.Spec, opts, hs, Options{BatchWorkers: 3})
		if err != nil {
			t.Fatalf("%s shared: %v", d.Name, err)
		}
		fresh, err := CheckHistoryBatch(d.Name, d.Spec, opts, hs, Options{BatchWorkers: 1, FreshSessions: true})
		if err != nil {
			t.Fatalf("%s fresh: %v", d.Name, err)
		}
		if !reflect.DeepEqual(normalizeBatch(shared), normalizeBatch(fresh)) {
			t.Errorf("%s: mixed-polarity shared batch diverged from fresh:\nshared: %+v\nfresh:  %+v",
				d.Name, normalizeBatch(shared), normalizeBatch(fresh))
		}
		if shared.PlanReuses == 0 {
			t.Errorf("%s: shared session reused no pooled plans", d.Name)
		}
		if d.Rewriting != nil && shared.RewriteHits == 0 {
			t.Errorf("%s: duplicated histories must be served by their history records", d.Name)
		}
		if fresh.RewriteHits != 0 {
			t.Errorf("%s: fresh runs must not be served a recorded rewriting", d.Name)
		}
	}
}

// TestHistoryQueryRaceWithBatchRecheck pins the History concurrency
// contract the closure-free representation documents: Vis/Concurrent/
// VisibleTo/SeenBy are read-only and safe to issue from other
// goroutines while a shared-session batch re-checks the very same history
// objects on concurrent workers (history records, searcher pool). CI
// runs the suite under -race, which turns any hidden mutation — scratch
// reuse inside a query, lazily grown index rows — into a failure here.
func TestHistoryQueryRaceWithBatchRecheck(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	var hs []*core.History
	for trial := 0; trial < 4; trial++ {
		cfg := WorkloadConfig{Seed: int64(trial*977 + 5), Ops: 6, Replicas: 3, Elems: []string{"a", "b"}, DeliveryProb: 40}
		h, err := RunRandom(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	// Duplicate the batch so the shared session re-checks each history (the
	// history records' hit case) while the query hammers below keep reading it.
	batch := append(append([]*core.History(nil), hs...), hs...)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				h := hs[(w+i)%len(hs)]
				labels := h.Labels()
				for _, a := range labels {
					for _, b := range labels {
						h.Vis(a.ID, b.ID)
						h.Concurrent(a.ID, b.ID)
					}
					h.VisibleTo(a)
					h.SeenBy(a)
				}
			}
		}(w)
	}

	check := d.CheckOptions()
	check.Strategies = nil // force the engine so concurrent checks read the history plans
	check.DebugMemo = true
	out, err := CheckHistoryBatch(d.Name, d.Spec, check, batch, Options{BatchWorkers: 4})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("OR-Set histories must stay RA-linearizable under concurrent queries: %+v", out)
	}
}

// corruptQueryRet clones the history and breaks the return value of one query
// so the clone is (very likely) no longer RA-linearizable; nil when the
// history has no corruptible query.
func corruptQueryRet(h *core.History, seed int64) *core.History {
	rng := rand.New(rand.NewSource(seed))
	c := h.Clone()
	var queries []*core.Label
	for _, l := range c.Labels() {
		if l.IsQuery() && l.Ret != nil {
			queries = append(queries, l)
		}
	}
	if len(queries) == 0 {
		return nil
	}
	q := queries[rng.Intn(len(queries))]
	switch ret := q.Ret.(type) {
	case int64:
		q.Ret = ret + 1000
	case string:
		q.Ret = ret + "⊥corrupt"
	case []string:
		q.Ret = append(append([]string(nil), ret...), "⊥corrupt")
	default:
		return nil
	}
	return c
}

// TestBatchBothPolarities runs a pre-built batch mixing RA-linearizable and
// refuted histories through CheckHistoryBatch: shared and fresh runs must
// agree verdict for verdict, and the failure example must be the first
// refuted trial by index regardless of completion order.
func TestBatchBothPolarities(t *testing.T) {
	var hs []*core.History
	for k := 3; k <= 6; k++ {
		hs = append(hs, incsHistory(k, int64(k)))   // linearizable
		hs = append(hs, incsHistory(k, int64(k)+7)) // refuted
	}
	opts := core.CheckOptions{Exhaustive: true}
	shared, err := CheckHistoryBatch("counter-mix", spec.Counter{}, opts, hs, Options{BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := CheckHistoryBatch("counter-mix", spec.Counter{}, opts, hs, Options{BatchWorkers: 1, FreshSessions: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeBatch(shared), normalizeBatch(fresh)) {
		t.Fatalf("mixed-polarity batch diverged:\nshared: %+v\nfresh:  %+v",
			normalizeBatch(shared), normalizeBatch(fresh))
	}
	if shared.Linearizable != 4 || shared.Histories != 8 {
		t.Fatalf("expected 4/8 linearizable: %+v", shared)
	}
	// Trial 1 (the k=3, read⇒10 history) is the first refuted index.
	if !strings.HasPrefix(shared.FailureExample, "seed 1:") {
		t.Fatalf("failure example must be the first refuted trial by index: %q", shared.FailureExample)
	}
}

// TestBatchPoolRace saturates the batch pool (8 workers, one shared session)
// so `go test -race` — the CI configuration — exercises the concurrent
// searcher pool end to end.
func TestBatchPoolRace(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	check := d.CheckOptions()
	check.Strategies = nil // force the engine on every trial
	check.DebugMemo = true // exercise the debug tuple store under -race too
	cfg := WorkloadConfig{Seed: 2, Ops: 6, Replicas: 3, Elems: []string{"a", "b"}, DeliveryProb: 40}
	out, err := CheckGeneratedAgainst(d.Name, d.Spec, check, RandomGenerator{Desc: d, Cfg: cfg}, 16, Options{BatchWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("OR-Set histories must all be RA-linearizable: %+v", out)
	}
	if out.BatchWorkers != 8 {
		t.Fatalf("expected 8 batch workers: %+v", out)
	}
}

// TestNegativeTrialsRejected checks that every batch and monitor entry point
// returns an error for a negative trial count, without calling the
// generator, instead of panicking or reporting an empty run as a success.
func TestNegativeTrialsRejected(t *testing.T) {
	d, err := registry.Lookup("Counter")
	if err != nil {
		t.Fatal(err)
	}
	gen := GeneratorFunc(func(int) (*core.History, int64, error) {
		t.Fatal("generator called for a negative trial count")
		return nil, 0, nil
	})
	cfg := WorkloadConfig{Ops: 4, Replicas: 2}
	entries := map[string]func() (HistoryCheck, error){
		"CheckRandomHistoriesWith": func() (HistoryCheck, error) { return CheckRandomHistoriesWith(d, -1, cfg, Options{}) },
		"CheckGeneratedAgainst": func() (HistoryCheck, error) {
			return CheckGeneratedAgainst(d.Name, d.Spec, d.CheckOptions(), gen, -1, Options{})
		},
		"MonitorGenerated": func() (HistoryCheck, error) {
			return MonitorGenerated(d.Name, d.Spec, d.CheckOptions(), gen, -2, Options{})
		},
		"MonitorRandomHistories": func() (HistoryCheck, error) { return MonitorRandomHistories(d, -1, cfg, Options{}) },
	}
	for name, run := range entries {
		res, err := run()
		if err == nil || !strings.Contains(err.Error(), "negative trial count") {
			t.Errorf("%s: want a negative-trial-count error, got %v", name, err)
		}
		if res.Histories != 0 {
			t.Errorf("%s: checked %d histories for a negative trial count", name, res.Histories)
		}
	}
}

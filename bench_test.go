package ralin

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus scaling and
// ablation benchmarks for the checker itself. The paper reports no wall-clock
// numbers; the quantities of interest are the verdicts (reproduced by the
// harness package and asserted in the test suite) and the relative cost of
// the constructive linearization strategies versus the exhaustive search.

import (
	"fmt"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/scenario"
	"ralin/internal/search"
	"ralin/internal/spec"
	"ralin/internal/verify"
)

// benchExperiment re-runs one figure reproduction per iteration (under the
// default checker options) and fails the benchmark if the reproduction stops
// matching the paper.
func benchExperiment(b *testing.B, run func(harness.Options) harness.Experiment) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e := run(harness.Options{}); !e.OK {
			b.Fatalf("experiment %s no longer reproduces", e.ID)
		}
	}
}

// BenchmarkFig2RGAConflictResolution regenerates Figure 2 (E-FIG2).
func BenchmarkFig2RGAConflictResolution(b *testing.B) { benchExperiment(b, harness.Fig2) }

// BenchmarkFig3HistoryExtraction regenerates Figure 3 (E-FIG3).
func BenchmarkFig3HistoryExtraction(b *testing.B) { benchExperiment(b, harness.Fig3) }

// BenchmarkFig5aORSetNotLinearizable regenerates Figure 5a (E-FIG5A).
func BenchmarkFig5aORSetNotLinearizable(b *testing.B) { benchExperiment(b, harness.Fig5a) }

// BenchmarkFig5bORSetRALinearizable regenerates Figure 5b (E-FIG5B).
func BenchmarkFig5bORSetRALinearizable(b *testing.B) { benchExperiment(b, harness.Fig5b) }

// BenchmarkSec33ClientReasoning explores every schedule of the Section 3.3
// client program (E-SEC33).
func BenchmarkSec33ClientReasoning(b *testing.B) { benchExperiment(b, harness.Sec33) }

// BenchmarkFig8TimestampOrderLinearization regenerates Figure 8 (E-FIG8).
func BenchmarkFig8TimestampOrderLinearization(b *testing.B) { benchExperiment(b, harness.Fig8) }

// BenchmarkFig9CompositionExecutionOrder regenerates Figure 9 (E-FIG9).
func BenchmarkFig9CompositionExecutionOrder(b *testing.B) { benchExperiment(b, harness.Fig9) }

// BenchmarkFig10CompositionSharedTimestamp regenerates Figure 10 (E-FIG10).
func BenchmarkFig10CompositionSharedTimestamp(b *testing.B) { benchExperiment(b, harness.Fig10) }

// BenchmarkFig13SemanticsSteps regenerates Figure 13 (E-FIG13).
func BenchmarkFig13SemanticsSteps(b *testing.B) { benchExperiment(b, harness.Fig13) }

// BenchmarkFig14AddAtSpecSeparation regenerates Figure 14 (E-FIG14).
func BenchmarkFig14AddAtSpecSeparation(b *testing.B) { benchExperiment(b, harness.Fig14) }

// fig12BenchOptions keeps one Figure 12 row affordable inside a benchmark
// iteration while still running every obligation.
func fig12BenchOptions() harness.Fig12Options {
	return harness.Fig12Options{
		Verify: verify.Options{
			Seed: 1, Trials: 5, Ops: 8, Replicas: 3,
			Elems: []string{"a", "b", "c"}, MaxStates: 25,
		},
		HistoryTrials: 8,
		Workload: harness.WorkloadConfig{
			Seed: 1, Ops: 8, Replicas: 3,
			Elems: []string{"a", "b", "c"}, DeliveryProb: 40,
		},
	}
}

// BenchmarkFig12Table regenerates the whole Figure 12 table per iteration
// (E-FIG12).
func BenchmarkFig12Table(b *testing.B) {
	b.ReportAllocs()
	opts := fig12BenchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig12Table(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.OK() {
				b.Fatalf("row %s failed verification", r.Name)
			}
		}
	}
}

// BenchmarkFig12 regenerates each row of Figure 12 separately: proof
// obligations plus random-history checking for one CRDT per sub-benchmark.
func BenchmarkFig12(b *testing.B) {
	opts := fig12BenchOptions()
	for _, d := range registry.Fig12() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row, err := harness.Fig12RowFor(d, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !row.OK() {
					b.Fatalf("%s failed verification", d.Name)
				}
			}
		})
	}
}

// stepCounter forwards a spec's StepAppend and counts the spec steps taken
// through it; ownedStepCounter adds the OwnedStepper fast path, so a counted
// OR-Set keeps its in-place fold.
type stepCounter struct {
	core.Spec
	steps int
}

func (c *stepCounter) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	c.steps++
	return c.Spec.StepAppend(dst, phi, l)
}

type ownedStepCounter struct{ *stepCounter }

func (c ownedStepCounter) StepOwned(phi core.AbsState, l *core.Label) (core.AbsState, bool) {
	c.steps++
	return c.Spec.(core.OwnedStepper).StepOwned(phi, l)
}

// countSteps wraps sp in the step counter matching its fast paths.
func countSteps(sp core.Spec) (core.Spec, *int) {
	c := &stepCounter{Spec: sp}
	if _, ok := sp.(core.OwnedStepper); ok {
		return ownedStepCounter{c}, &c.steps
	}
	return c, &c.steps
}

// BenchmarkStrategyValidation isolates the constructive-strategy layer of
// the Figure 12 traffic (core.strategy in bench/): core.IsRALinearization of
// prebuilt γ-rewritten random histories of each Figure 12 type against
// their designated linearization, the check that decides every such history.
// One op validates all 64 histories of a type, the first 64 trials of
// harness.DefaultWorkload (seed 1). steps/op is the number of spec steps one
// op takes, counted by an untimed pass through a counting wrapper; with
// allocs/op it is deterministic, and `make bench-gate` diffs allocs/op
// against the committed baseline.
func BenchmarkStrategyValidation(b *testing.B) {
	const histories = 64
	type validation struct {
		h   *core.History
		seq []*core.Label
	}
	for _, d := range registry.Fig12() {
		d := d
		opts := d.CheckOptions()
		gen := harness.RandomGenerator{Desc: d, Cfg: harness.DefaultWorkload()}
		vals := make([]validation, histories)
		for i := range vals {
			h, _, err := gen.Generate(i)
			if err != nil {
				b.Fatal(err)
			}
			rew, err := core.RewriteHistory(h, opts.Rewriting)
			if err != nil {
				b.Fatal(err)
			}
			seq := core.ExecutionOrderLinearization(rew.History)
			if opts.Strategies[0] == core.StrategyTimestampOrder {
				seq = core.TimestampOrderLinearization(rew.History)
			}
			vals[i] = validation{rew.History, seq}
		}
		b.Run(d.Name, func(b *testing.B) {
			counted, steps := countSteps(d.Spec)
			for i, v := range vals {
				if err := core.IsRALinearization(v.h, v.seq, counted); err != nil {
					b.Fatalf("history %d: designated linearization rejected: %v", i, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range vals {
					if err := core.IsRALinearization(v.h, v.seq, d.Spec); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(*steps), "steps/op")
		})
	}
}

// BenchmarkRewriteSmall isolates the γ-rewriting layer of the Figure 12
// traffic (core.rewrite in bench/) on the two types whose rewriting clones:
// core.RewriteHistory of the first 64 harness.DefaultWorkload histories
// (seed 1) of OR-Set, whose removes split into (query, update) pairs, and of
// MV-Reg, whose writes are retagged. One op rewrites all 64; allocs/op and
// B/op are deterministic, and `make bench-gate` diffs allocs/op against the
// committed baseline.
func BenchmarkRewriteSmall(b *testing.B) {
	const histories = 64
	for _, c := range []struct{ name, desc string }{{"OR-Set", "OR-Set"}, {"MV-Reg", "Multi-Value Reg."}} {
		d, err := registry.Lookup(c.desc)
		if err != nil {
			b.Fatal(err)
		}
		g := d.CheckOptions().Rewriting
		gen := harness.RandomGenerator{Desc: d, Cfg: harness.DefaultWorkload()}
		hs := make([]*core.History, histories)
		for i := range hs {
			if hs[i], _, err = gen.Generate(i); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, h := range hs {
					if _, err := core.RewriteHistory(h, g); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCheckerScalingOps measures RA-linearizability checking of random
// RGA histories as the number of operations grows (E-SCALE).
func BenchmarkCheckerScalingOps(b *testing.B) {
	d, err := registry.Lookup("RGA")
	if err != nil {
		b.Fatal(err)
	}
	for _, ops := range []int{4, 6, 8, 10, 12} {
		ops := ops
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			benchCheckHistories(b, d, harness.WorkloadConfig{
				Seed: 3, Ops: ops, Replicas: 3, DeliveryProb: 40,
			})
		})
	}
}

// BenchmarkCheckerScalingReplicas measures RA-linearizability checking of
// random OR-Set histories as the number of replicas grows (E-SCALE).
func BenchmarkCheckerScalingReplicas(b *testing.B) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		b.Fatal(err)
	}
	for _, replicas := range []int{2, 3, 4, 6} {
		replicas := replicas
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			benchCheckHistories(b, d, harness.WorkloadConfig{
				Seed: 3, Ops: 8, Replicas: replicas,
				Elems: []string{"a", "b", "c"}, DeliveryProb: 40,
			})
		})
	}
}

func benchCheckHistories(b *testing.B, d crdt.Descriptor, cfg harness.WorkloadConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		h, err := harness.RunRandom(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res := core.CheckRA(h, d.Spec, d.CheckOptions()); res.Verdict != core.VerdictValid {
			b.Fatalf("random history not RA-linearizable: %v", res.LastErr)
		}
	}
}

// BenchmarkConstructiveVsExhaustive is the ablation called out in DESIGN.md:
// the constructive timestamp-order linearization of Theorem 4.6 versus a
// purely exhaustive search over linear extensions, on identical RGA
// histories.
func BenchmarkConstructiveVsExhaustive(b *testing.B) {
	d, err := registry.Lookup("RGA")
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.WorkloadConfig{Seed: 11, Ops: 9, Replicas: 3, DeliveryProb: 40}
	histories := make([]*core.History, 12)
	for i := range histories {
		cfg.Seed = int64(100 + i)
		h, err := harness.RunRandom(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		histories[i] = h
	}
	variants := []struct {
		name string
		opts core.CheckOptions
	}{
		{"constructive", core.CheckOptions{Strategies: []core.Strategy{core.StrategyTimestampOrder}}},
		{"exhaustive-legacy", core.CheckOptions{Exhaustive: true, MaxExtensions: 500000, Engine: core.EngineLegacy}},
		{"exhaustive-pruned", core.CheckOptions{Exhaustive: true, MaxExtensions: 500000, Engine: core.EnginePruned}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := histories[i%len(histories)]
				if res := core.CheckRA(h, d.Spec, v.opts); res.Verdict != core.VerdictValid {
					b.Fatalf("history not RA-linearizable under %s: %v", v.name, res.LastErr)
				}
			}
		})
	}
}

// BenchmarkBatchCheckRandomHistories measures the CheckRandomHistories batch
// pipeline end to end — workload generation, exhaustive checking (strategies
// disabled so every trial drives the search engine) and deterministic
// aggregation — at the four corners of {per-history fresh engine state,
// shared batch session} × {1, 4} batch workers. fresh/w1 is the pre-batch
// pipeline (every history rebuilt the interner, the memo table and the
// searcher scratch from scratch); shared/w4 is the default pipeline after the
// batch-session change. Every search runs on one goroutine, so the variants
// differ only in batch structure. See BENCHMARKS.md for committed
// numbers; `make bench-gate` diffs the allocs/op of every variant against the
// committed baseline.
func BenchmarkBatchCheckRandomHistories(b *testing.B) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		b.Fatal(err)
	}
	check := d.CheckOptions()
	check.Strategies = nil
	cfg := harness.WorkloadConfig{
		Seed: 5, Ops: 8, Replicas: 3,
		Elems: []string{"a", "b", "c"}, DeliveryProb: 40,
	}
	const trials = 32
	variants := []struct {
		name  string
		batch harness.Options
	}{
		{"fresh/w1", harness.Options{BatchWorkers: 1, FreshSessions: true}},
		{"fresh/w4", harness.Options{BatchWorkers: 4, FreshSessions: true}},
		{"shared/w1", harness.Options{BatchWorkers: 1}},
		{"shared/w4", harness.Options{BatchWorkers: 4}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := harness.CheckGeneratedAgainst(d.Name, d.Spec, check, harness.RandomGenerator{Desc: d, Cfg: cfg}, trials, v.batch)
				if err != nil {
					b.Fatal(err)
				}
				if !out.OK() {
					b.Fatalf("random OR-Set histories must be RA-linearizable: %+v", out)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "histories/sec")
		})
	}
}

// BenchmarkBatchRefutations measures a batch of full refutations (the
// engine-dominated workload: pre-built non-RA-linearizable counter histories,
// no generation cost) through CheckHistoryBatch, per-history fresh state
// versus one shared session. Every trial must refute its whole search space,
// so this isolates what the shared session and the StepAppend fast path save
// inside the checking pipeline itself.
func BenchmarkBatchRefutations(b *testing.B) {
	var hs []*core.History
	for i := 0; i < 12; i++ {
		hs = append(hs, nonLinearizableHistory(4))
	}
	opts := core.CheckOptions{Exhaustive: true}
	variants := []struct {
		name  string
		batch harness.Options
	}{
		{"fresh/w1", harness.Options{BatchWorkers: 1, FreshSessions: true}},
		{"shared/w1", harness.Options{BatchWorkers: 1}},
		{"shared/w4", harness.Options{BatchWorkers: 4}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := harness.CheckHistoryBatch("refutations", spec.Counter{}, opts, hs, v.batch)
				if err != nil {
					b.Fatal(err)
				}
				if out.Linearizable != 0 {
					b.Fatalf("every history must be refuted: %+v", out)
				}
			}
			b.ReportMetric(float64(len(hs))*float64(b.N)/b.Elapsed().Seconds(), "histories/sec")
		})
	}
}

// BenchmarkSessionRecheck isolates the per-check setup cost the session
// history-plan cache amortizes: one OR-Set history (real query-update
// rewriting, so every check pays a full history clone without the cache)
// re-checked exhaustively, fresh engine state per check versus one session
// whose history record serves the γ-rewriting and whose searcher pool serves
// the plan's index arrays after the first check. Sequential search, so the
// variants differ only in setup amortization. See BENCHMARKS.md for committed
// numbers; `make bench-gate` diffs both variants against the baseline.
func BenchmarkSessionRecheck(b *testing.B) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.WorkloadConfig{
		Seed: 7, Ops: 8, Replicas: 3,
		Elems: []string{"a", "b", "c"}, DeliveryProb: 40,
	}
	h, err := harness.RunRandom(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := d.CheckOptions()
	opts.Strategies = nil
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := core.CheckRA(h, d.Spec, opts); res.Verdict != core.VerdictValid {
				b.Fatalf("history must be RA-linearizable: %v", res.LastErr)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		sess := search.NewSession()
		// Two warm-up checks fill the session's caches: the first fills the
		// searcher pool (plan, memo table, scratch, transition table) and the
		// history's record, the second runs warm. The timed loop then
		// measures the warm re-check steady state: 0 allocs/op, asserted by
		// `make bench-gate`.
		for w := 0; w < 2; w++ {
			if res := core.CheckRAWith(h, d.Spec, opts, sess); res.Verdict != core.VerdictValid {
				b.Fatalf("history must be RA-linearizable: %v", res.LastErr)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := core.CheckRAWith(h, d.Spec, opts, sess); res.Verdict != core.VerdictValid {
				b.Fatalf("history must be RA-linearizable: %v", res.LastErr)
			}
		}
	})
}

// nonLinearizableHistory builds the adversarial history of the engine
// comparison: k concurrent counter increments all visible to one read that
// returns an impossible value. The legacy enumerator validates all k!
// extensions before rejecting. The increments are twins (same fields, same
// visibility), so the pruned engine places them in one fixed order and
// refutes the history in k+1 nodes; without the twin reduction its memo
// table would still have visited all 2^k placed sets.
func nonLinearizableHistory(k int) *core.History {
	h := core.NewHistory()
	for i := 1; i <= k; i++ {
		h.MustAdd(&core.Label{ID: uint64(i), Method: "inc", Kind: core.KindUpdate, GenSeq: uint64(i)})
	}
	r := h.MustAdd(&core.Label{ID: uint64(k + 1), Method: "read", Ret: int64(999), Kind: core.KindQuery, GenSeq: uint64(k + 1)})
	for i := 1; i <= k; i++ {
		h.MustAddVis(uint64(i), r.ID)
	}
	return h
}

// BenchmarkEngineNonLinearizable compares the pruned engine against the
// legacy enumerator on a non-RA-linearizable history, where the whole search
// space must be refuted. Candidate checks per refutation are reported as the
// "checks/refute" metric (Result.Tried for legacy, Result.Nodes for pruned).
// See BENCHMARKS.md for committed numbers.
func BenchmarkEngineNonLinearizable(b *testing.B) {
	h := nonLinearizableHistory(7)
	sp := spec.Counter{}
	variants := []struct {
		name string
		opts core.CheckOptions
	}{
		{"legacy", core.CheckOptions{Exhaustive: true, Engine: core.EngineLegacy}},
		{"pruned", core.CheckOptions{Exhaustive: true, Engine: core.EnginePruned}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			checks := 0
			for i := 0; i < b.N; i++ {
				res := core.CheckRA(h, sp, v.opts)
				if res.Verdict != core.VerdictInvalid {
					b.Fatalf("history must be refuted completely: %+v", res)
				}
				if res.Nodes > 0 {
					checks = res.Nodes
				} else {
					checks = res.Tried
				}
			}
			b.ReportMetric(float64(checks), "checks/refute")
		})
	}
}

// wideRefutationHistory builds a refute-wide-shaped history: twelve writers
// on twelve replicas, eight incs and four decs, two deliveries pairing
// writers of both kinds (1→7 and 4→10), and one read that sees every update
// and returns the sum plus one, which no order explains. The undelivered
// incs and the undelivered decs form two twin classes; the delivered pairs
// are not twins of anything.
func wideRefutationHistory() *core.History {
	const k = 12
	h := core.NewHistory()
	sum := int64(0)
	for i := 1; i <= k; i++ {
		method := "inc"
		if i%3 == 0 {
			method = "dec"
			sum--
		} else {
			sum++
		}
		h.MustAdd(&core.Label{ID: uint64(i), Method: method, Kind: core.KindUpdate, Origin: clock.ReplicaID(i - 1), GenSeq: uint64(i)})
	}
	h.MustAddVis(1, 7)
	h.MustAddVis(4, 10)
	r := h.MustAdd(&core.Label{ID: k + 1, Method: "read", Ret: sum + 1, Kind: core.KindQuery, GenSeq: k + 1})
	for i := 1; i <= k; i++ {
		h.MustAddVis(uint64(i), r.ID)
	}
	return h
}

// BenchmarkEngineWideRefutation refutes wideRefutationHistory completely
// with the pruned engine and reports the search's nodes per check
// ("nodes/op"): the twin reduction's gated counter, which stays far below the
// number of writer subsets the deliveries allow.
func BenchmarkEngineWideRefutation(b *testing.B) {
	h := wideRefutationHistory()
	sp := spec.Counter{}
	opts := core.CheckOptions{Exhaustive: true}
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		nodes := 0
		for i := 0; i < b.N; i++ {
			res := core.CheckRA(h, sp, opts)
			if res.Verdict != core.VerdictInvalid {
				b.Fatalf("history must be refuted completely: %+v", res)
			}
			nodes = res.Nodes
		}
		b.ReportMetric(float64(nodes), "nodes/op")
	})
}

// BenchmarkDegradedRefutation measures the cost of the memory-budget
// degraded mode on the wide gated refutation (wideRefutationHistory; the
// twin increments of nonLinearizableHistory refute in k+1 nodes with or
// without a memo table, so they show no delta): the same pruned refutation
// with full memoization, with memoization disabled outright, and
// through a session whose budget trips on the first interned state (the
// graceful-degradation path the fail-safe machinery falls back to). The
// checks/refute metric makes the Nodes delta of memo-less search visible.
// Deliberately NOT part of BENCH_GATE_PATTERN: degraded mode trades speed for
// bounded memory by design.
func BenchmarkDegradedRefutation(b *testing.B) {
	h := wideRefutationHistory()
	sp := spec.Counter{}
	base := core.CheckOptions{Exhaustive: true}
	variants := []struct {
		name string
		opts func() core.CheckOptions
	}{
		{"memo", func() core.CheckOptions { return base }},
		{"memo-less", func() core.CheckOptions {
			o := base
			o.DisableMemo = true
			return o
		}},
		{"budget-tripped", func() core.CheckOptions {
			o := base
			o.Session = search.NewSessionWithBudget(search.Budget{MaxInternedStates: 1})
			return o
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := v.opts()
			nodes := 0
			for i := 0; i < b.N; i++ {
				res := core.CheckRA(h, sp, opts)
				if res.Verdict != core.VerdictInvalid {
					b.Fatalf("history must be refuted completely: %+v", res)
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "checks/refute")
		})
	}
}

// BenchmarkProofObligations measures the executable proof-obligation checking
// (the Boogie substitute of Section 6) for one operation-based and one
// state-based CRDT.
func BenchmarkProofObligations(b *testing.B) {
	opts := verify.Options{Seed: 1, Trials: 5, Ops: 8, Replicas: 3, Elems: []string{"a", "b"}, MaxStates: 25}
	opBased, _ := registry.Lookup("RGA")
	stateBased, _ := registry.Lookup("Multi-Value Reg.")
	b.Run("op-based/RGA", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := verify.CheckOpBased(opBased, opts); !r.OK() {
				b.Fatal("obligations failed")
			}
		}
	})
	b.Run("state-based/MV-Register", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := verify.CheckStateBased(stateBased, opts); !r.OK() {
				b.Fatal("obligations failed")
			}
		}
	})
}

// BenchmarkRuntimeThroughput measures the raw simulator throughput (operations
// plus full delivery) for a representative operation-based and state-based
// CRDT, independent of any checking.
func BenchmarkRuntimeThroughput(b *testing.B) {
	for _, name := range []string{"RGA", "OR-Set", "PN-Counter", "LWW-Element Set"} {
		d, err := registry.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := harness.WorkloadConfig{Ops: 30, Replicas: 3, DeliveryProb: 30, FinalDelivery: true}
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				if _, err := harness.RunRandom(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioCorpus replays the committed fault-schedule corpus
// (testdata/corpus/): every harvested history is checked against its recorded
// plan with the pruned engine on a single goroutine, so the number reported
// here is the steady-state cost of the regression corpus itself. The verdicts
// are asserted each iteration — a checker change that flips one fails the
// benchmark, not just the test suite.
func BenchmarkScenarioCorpus(b *testing.B) {
	entries, paths := loadCorpus(b)
	type job struct {
		path string
		h    *core.History
		plan scenario.CheckPlan
		opts core.CheckOptions
		want bool
	}
	jobs := make([]job, 0, len(entries))
	for i, e := range entries {
		h, err := e.History()
		if err != nil {
			b.Fatalf("%s: %v", paths[i], err)
		}
		plan, err := e.Plan()
		if err != nil {
			b.Fatalf("%s: %v", paths[i], err)
		}
		opts := plan.Options
		opts.Engine = core.EnginePruned
		jobs = append(jobs, job{paths[i], h, plan, opts, e.RALinearizable})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			res := core.CheckRA(j.h, j.plan.Spec, j.opts)
			if (res.Verdict == core.VerdictValid) != j.want {
				b.Fatalf("%s: verdict %v, corpus recorded RA-linearizable=%v", j.path, res.Verdict, j.want)
			}
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "histories/sec")
}

// BenchmarkScenarioSession measures first-contact traffic through one
// session: fresh histories of every library scenario (40 each, seed 1),
// strategies off so every check searches, checked on one goroutine through
// one new session per op — the shape of a scenario batch, where no history
// is ever checked twice. What a session can carry from one such check to the
// next is only what does not depend on the history's identity: the searcher
// pool and each searcher's transition table with its state IDs. Verdicts are
// asserted against sessionless checks each iteration.
func BenchmarkScenarioSession(b *testing.B) {
	const perScenario = 40
	type job struct {
		h    *core.History
		sp   core.Spec
		opts core.CheckOptions
		want core.Verdict
	}
	var jobs []job
	for _, sc := range scenario.All() {
		plan, err := sc.Plan()
		if err != nil {
			b.Fatal(err)
		}
		opts := plan.Options
		opts.Strategies = nil
		opts.Engine = core.EnginePruned
		gen := scenario.Generator{Scenario: sc, Seed: 1}
		for i := 0; i < perScenario; i++ {
			h, _, err := gen.Generate(i)
			if err != nil {
				b.Fatalf("%s trial %d: %v", sc.Name, i, err)
			}
			jobs = append(jobs, job{h, plan.Spec, opts, core.CheckRA(h, plan.Spec, opts).Verdict})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := search.NewSession()
		for k, j := range jobs {
			if res := core.CheckRAWith(j.h, j.sp, j.opts, sess); res.Verdict != j.want {
				b.Fatalf("history %d: session verdict %v, sessionless %v", k, res.Verdict, j.want)
			}
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "histories/sec")
}

// incrementalStream builds the deterministic n-op monitor workload of
// BenchmarkIncrementalExtend: counter increments with a read every fourth
// operation that sees every update so far (edges attached as the read is
// appended, the way a live monitor observes them). Labels are shared across
// iterations; each iteration replays them into a fresh history.
func incrementalStream(n int) ([]*core.Label, [][]core.VisEdge) {
	labels := make([]*core.Label, 0, n)
	edges := make([][]core.VisEdge, n)
	incs := 0
	for k := 0; k < n; k++ {
		id := uint64(k + 1)
		if (k+1)%4 == 0 {
			l := &core.Label{ID: id, Method: "read", Ret: int64(incs), Kind: core.KindQuery, GenSeq: id}
			labels = append(labels, l)
			for _, u := range labels[:k] {
				if u.Kind == core.KindUpdate {
					edges[k] = append(edges[k], core.VisEdge{From: u.ID, To: id})
				}
			}
		} else {
			labels = append(labels, &core.Label{ID: id, Method: "inc", Kind: core.KindUpdate, GenSeq: id})
			incs++
		}
	}
	return labels, edges
}

// orsetStream builds the deterministic n-op Spec(OR-Set) monitor workload of
// BenchmarkIncrementalExtend, already in rewritten form: add(e, id) over three
// elements, a removeIds of the oldest live pair (which sees that pair's add)
// every eighth operation, and a read every fourth operation that sees every
// update so far. The pair set grows ~n/2 large, so a justification fold that
// clones the state per update costs O(visible updates × state size).
func orsetStream(n int) ([]*core.Label, [][]core.VisEdge) {
	labels := make([]*core.Label, 0, n)
	edges := make([][]core.VisEdge, n)
	var live []core.Pair
	addOf := map[core.Pair]uint64{}
	for k := 0; k < n; k++ {
		id := uint64(k + 1)
		switch {
		case (k+1)%4 == 0:
			var vals []string
			for _, p := range live {
				vals = append(vals, p.Elem)
			}
			vals = core.SortedSet(vals)
			if vals == nil {
				vals = []string{}
			}
			labels = append(labels, &core.Label{ID: id, Method: "read", Ret: vals, Kind: core.KindQuery, GenSeq: id})
			for _, u := range labels[:k] {
				if u.Kind == core.KindUpdate {
					edges[k] = append(edges[k], core.VisEdge{From: u.ID, To: id})
				}
			}
		case (k+1)%8 == 2 && len(live) > 0:
			p := live[0]
			live = live[1:]
			labels = append(labels, &core.Label{ID: id, Method: "removeIds", Args: []core.Value{[]core.Pair{p}}, Kind: core.KindUpdate, GenSeq: id})
			edges[k] = []core.VisEdge{{From: addOf[p], To: id}}
		default:
			p := core.Pair{Elem: string(rune('a' + k%3)), ID: id}
			live = append(live, p)
			addOf[p] = id
			labels = append(labels, &core.Label{ID: id, Method: "add", Args: []core.Value{p.Elem, p.ID}, Kind: core.KindUpdate, GenSeq: id})
		}
	}
	return labels, edges
}

// BenchmarkIncrementalExtend measures the point of the incremental checker:
// re-verifying a growing history at every operation. The extend variant
// replays the stream through core.CheckRAExtend over one warm session, so
// each prefix costs ~the marginal work of its new operation (a certificate
// replay in the steady state); the scratch variant is what a monitor without
// the incremental path must do — a full from-scratch check of every prefix.
// Both verify the identical n prefixes per iteration and report prefixes/sec;
// the committed baseline (BENCHMARKS.md) shows the extend curve staying ~flat
// in n where scratch grows ~quadratically. The Counter stream's int states
// cost nothing to copy; the orset stream's pair sets make the per-prefix
// cost of justifying a read visible. `make bench-gate` diffs the allocs/op of
// every extend sub-benchmark against the committed baseline.
func BenchmarkIncrementalExtend(b *testing.B) {
	type workload struct {
		prefix string
		sp     core.Spec
		stream func(int) ([]*core.Label, [][]core.VisEdge)
		sizes  []int
		// scratchUpTo caps the sizes the scratch variant runs at: a
		// from-scratch OR-Set monitor at n=256 takes seconds per iteration.
		scratchUpTo int
	}
	for _, w := range []workload{
		{"", spec.Counter{}, incrementalStream, []int{8, 16, 32, 64}, 64},
		{"orset/", spec.ORSet{}, orsetStream, []int{64, 256}, 64},
	} {
		for _, n := range w.sizes {
			benchIncrementalStream(b, w.prefix, w.sp, n, w.stream, n <= w.scratchUpTo)
		}
	}
}

// benchIncrementalStream runs the extend variant of BenchmarkIncrementalExtend
// over one n-op stream, and the scratch variant when scratch is set.
func benchIncrementalStream(b *testing.B, prefix string, sp core.Spec, n int, stream func(int) ([]*core.Label, [][]core.VisEdge), scratch bool) {
	labels, edges := stream(n)
	replay := func(b *testing.B, check func(g *core.History, k int) core.Result) {
		b.Helper()
		g := core.NewHistory()
		for k, l := range labels {
			g.MustAdd(l)
			for _, e := range edges[k] {
				g.MustAddVis(e.From, e.To)
			}
			if res := check(g, k); res.Verdict != core.VerdictValid {
				b.Fatalf("prefix %d/%d: %v (%+v)", k+1, n, res.Verdict, res.Incomplete)
			}
		}
	}
	b.Run(fmt.Sprintf("%sextend/n=%d", prefix, n), func(b *testing.B) {
		sess := search.NewSession()
		opts := core.CheckOptions{Exhaustive: true, Session: sess}
		run := func(b *testing.B) {
			replay(b, func(g *core.History, k int) core.Result {
				return core.CheckRAExtend(g, sp, labels[k:k+1], opts)
			})
		}
		// Two warm-up replays fill the session caches (pools, transition
		// tables); the timed loop measures the steady state.
		for w := 0; w < 2; w++ {
			run(b)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "prefixes/sec")
	})
	if !scratch {
		return
	}
	b.Run(fmt.Sprintf("%sscratch/n=%d", prefix, n), func(b *testing.B) {
		opts := core.CheckOptions{Exhaustive: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			replay(b, func(g *core.History, k int) core.Result {
				return core.CheckRA(g, sp, opts)
			})
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "prefixes/sec")
	})
}

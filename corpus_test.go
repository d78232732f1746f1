package ralin

// Regression tests over the committed scenario corpus (testdata/corpus/):
// the most interesting histories harvested from the fault-schedule scenario
// library — naive-specification refutations and the highest-node positive
// checks. Every entry is replayed against its recorded verdict, and checked
// under both exhaustive engines, so a checker change that flips a verdict or
// an engine divergence shows up here before it ships.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ralin/internal/core"
	"ralin/internal/harness"
	"ralin/internal/scenario"
	"ralin/internal/search"
)

const corpusDir = "testdata/corpus"

func loadCorpus(t testing.TB) ([]scenario.Entry, []string) {
	t.Helper()
	entries, paths, err := scenario.LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("no corpus entries under %s; regenerate with `make scenarios`", corpusDir)
	}
	return entries, paths
}

// TestScenarioCorpusReplay replays every committed corpus entry and asserts
// the verdict recorded at harvest time.
func TestScenarioCorpusReplay(t *testing.T) {
	entries, paths := loadCorpus(t)
	for i, e := range entries {
		h, err := e.History()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		plan, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		res := core.CheckRA(h, plan.Spec, plan.Options)
		if (res.Verdict == core.VerdictValid) != e.RALinearizable {
			t.Errorf("%s: replay verdict %v, corpus recorded RA-linearizable=%v (scenario %s seed %d vs %s)",
				paths[i], res.Verdict, e.RALinearizable, e.Scenario, e.Seed, e.Spec)
		}
	}
}

// TestScenarioCorpusFailSafe replays the whole corpus under hostile resource
// limits and asserts the fail-safe contract: no crash, no wrong verdict —
// every entry comes back Unknown with a populated Incomplete reason. The CI
// workflow runs this under the race detector.
func TestScenarioCorpusFailSafe(t *testing.T) {
	entries, paths := loadCorpus(t)

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		<-ctx.Done() // expire first, so every entry deterministically hits it
		for i, e := range entries {
			h, err := e.History()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			plan, err := e.Plan()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			opts := plan.Options
			opts.Context = ctx
			res := core.CheckRA(h, plan.Spec, opts)
			if res.Verdict != core.VerdictUnknown {
				t.Errorf("%s: expired deadline must yield Unknown, got %v (%+v)", paths[i], res.Verdict, res.Incomplete)
				continue
			}
			if res.Incomplete == nil || res.Incomplete.Reason != core.ReasonDeadline {
				t.Errorf("%s: want ReasonDeadline, got %+v", paths[i], res.Incomplete)
			}
		}
	})

	t.Run("mem-budget", func(t *testing.T) {
		sess := search.NewSessionWithBudget(search.Budget{MaxInternedStates: 1, MaxMemoBytes: 1})
		for i, e := range entries {
			h, err := e.History()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			plan, err := e.Plan()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			opts := plan.Options
			opts.Strategies = nil // force the search; a constructive witness would dodge the budget
			opts.Exhaustive = true
			opts.Engine = core.EnginePruned
			opts.MaxNodes = 1 // the degraded, memo-less search must then truncate
			opts.Session = sess
			res := core.CheckRA(h, plan.Spec, opts)
			if res.Verdict != core.VerdictUnknown {
				t.Errorf("%s: tripped budget must yield Unknown, got %v (%+v)", paths[i], res.Verdict, res.Incomplete)
				continue
			}
			if res.Incomplete == nil || res.Incomplete.Reason == "" {
				t.Errorf("%s: Unknown verdict must carry a reason: %+v", paths[i], res.Incomplete)
				continue
			}
			if r := res.Incomplete.Reason; r != core.ReasonMemBudget && r != core.ReasonNodeBudget {
				t.Errorf("%s: want mem-budget/node-budget reason, got %q", paths[i], r)
			}
		}
	})
}

// TestScenarioCorpusGuidedDifferential is the corpus-wide differential gate
// on guided branch ordering: every committed entry is checked with rank order
// and with guided ordering (sequential, strategies disabled so the engine
// actually searches), and the verdicts must be byte-identical — only Nodes
// may change. On refutations guided must never explore more nodes than rank
// order: the query-commit reduction only ever shrinks the refutation DAG,
// while pure sibling reordering leaves it untouched. DebugMemo is on for
// every replay, so the run doubles as the corpus-wide soak of the memo
// table's hash-collision check (two distinct configurations sharing a
// 128-bit key would panic here).
func TestScenarioCorpusGuidedDifferential(t *testing.T) {
	entries, paths := loadCorpus(t)
	for i, e := range entries {
		h, err := e.History()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		plan, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		opts := plan.Options
		opts.Strategies = nil
		opts.Exhaustive = true
		opts.Engine = core.EnginePruned
		opts.DebugMemo = true
		opts.Guidance = core.GuidanceRankOrder
		rank := core.CheckRA(h, plan.Spec, opts)
		opts.Guidance = core.GuidanceGuided
		guided := core.CheckRA(h, plan.Spec, opts)
		if rank.Verdict != guided.Verdict {
			t.Errorf("%s: guided verdict diverged from rank order: rank %v guided %v",
				paths[i], rank.Verdict, guided.Verdict)
			continue
		}
		if (rank.Verdict == core.VerdictValid) != e.RALinearizable {
			t.Errorf("%s: verdict %v does not match corpus record RA-linearizable=%v", paths[i], rank.Verdict, e.RALinearizable)
		}
		if rank.Verdict != core.VerdictValid && guided.Nodes > rank.Nodes {
			t.Errorf("%s: guided refutation explored more nodes than rank order: %d > %d",
				paths[i], guided.Nodes, rank.Nodes)
		}
	}
}

// TestScenarioCorpusEnginesAgree checks every corpus entry with the pruned
// and legacy exhaustive engines (constructive strategies disabled, so both
// engines actually search) and asserts they reach the recorded verdict.
func TestScenarioCorpusEnginesAgree(t *testing.T) {
	entries, paths := loadCorpus(t)
	for i, e := range entries {
		h, err := e.History()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		plan, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		opts := plan.Options
		opts.Strategies = nil
		opts.Exhaustive = true
		opts.MaxExtensions = 500000
		for _, engine := range []core.Engine{core.EnginePruned, core.EngineLegacy} {
			opts.Engine = engine
			res := core.CheckRA(h, plan.Spec, opts)
			if res.Verdict == core.VerdictUnknown {
				t.Errorf("%s: engine %v did not decide the entry within budget", paths[i], engine)
				continue
			}
			if (res.Verdict == core.VerdictValid) != e.RALinearizable {
				t.Errorf("%s: engine %v verdict %v, corpus recorded RA-linearizable=%v", paths[i], engine, res.Verdict, e.RALinearizable)
			}
		}
	}
}

// TestBatchWidthDeterminism pins that batch width changes no result: every
// search runs on one goroutine, so a batch over the corpus must report the
// same verdicts and the same summed search counters at any BatchWorkers,
// over fresh and over shared sessions. Each scenario's corpus entries (three
// decoded copies of each, so four workers stay busy) form one batch, checked
// by the engine in default rank order with the strategies off. The reference
// is every history checked alone: the batch's verdict tallies, first failure
// and summed Nodes/Pruned/MemoHits/Leaves must equal the sum of those
// standalone checks, and each standalone verdict must match the corpus
// record. The CI workflow runs this under the race detector.
func TestBatchWidthDeterminism(t *testing.T) {
	entries, paths := loadCorpus(t)
	type group struct {
		plan scenario.CheckPlan
		hs   []*core.History
		want harness.HistoryCheck
	}
	var order []string
	groups := map[string]*group{}
	for i, e := range entries {
		plan, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		plan.Options.Strategies = nil
		plan.Options.Exhaustive = true
		g := groups[e.Scenario]
		if g == nil {
			g = &group{plan: plan, want: harness.HistoryCheck{ByStrategy: map[string]int{}}}
			groups[e.Scenario] = g
			order = append(order, e.Scenario)
		}
		for range 3 {
			h, err := e.History()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			res := core.CheckRA(h, plan.Spec, plan.Options)
			if (res.Verdict == core.VerdictValid) != e.RALinearizable {
				t.Fatalf("%s: standalone verdict %v, corpus recorded RA-linearizable=%v", paths[i], res.Verdict, e.RALinearizable)
			}
			g.want.Histories++
			g.want.Stats.Add(res.Stats)
			switch res.Verdict {
			case core.VerdictValid:
				g.want.Linearizable++
				g.want.ByStrategy["exhaustive"]++
			case core.VerdictInvalid:
				g.want.Invalid++
			default:
				g.want.Unknown++
			}
			g.hs = append(g.hs, h)
		}
	}
	for _, name := range order {
		g := groups[name]
		var first harness.HistoryCheck
		for _, o := range []harness.Options{
			{BatchWorkers: 1, FreshSessions: true},
			{BatchWorkers: 4, FreshSessions: true},
			{BatchWorkers: 1},
			{BatchWorkers: 4},
		} {
			got, err := harness.CheckHistoryBatch(name, g.plan.Spec, g.plan.Options, g.hs, o)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, o, err)
			}
			if got.Histories != g.want.Histories || got.Linearizable != g.want.Linearizable ||
				got.Invalid != g.want.Invalid || got.Unknown != g.want.Unknown ||
				!reflect.DeepEqual(got.ByStrategy, g.want.ByStrategy) || got.Stats != g.want.Stats {
				t.Errorf("%s workers=%d fresh=%v: batch %d/%d valid, %d invalid, %d unknown, %+v; standalone checks %d/%d valid, %d invalid, %d unknown, %+v",
					name, o.BatchWorkers, o.FreshSessions, got.Linearizable, got.Histories, got.Invalid, got.Unknown, got.Stats,
					g.want.Linearizable, g.want.Histories, g.want.Invalid, g.want.Unknown, g.want.Stats)
			}
			if o.BatchWorkers == 1 && o.FreshSessions {
				first = got
			} else if got.FailureExample != first.FailureExample {
				t.Errorf("%s workers=%d fresh=%v: first failure %q, sequential fresh batch %q",
					name, o.BatchWorkers, o.FreshSessions, got.FailureExample, first.FailureExample)
			}
		}
	}
}

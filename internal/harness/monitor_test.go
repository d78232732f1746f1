package harness

import (
	"reflect"
	"testing"
	"time"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/search"
)

// TestHistoryCheckStatsSumPerCheckResults pins the one counter fold: the
// Stats of a sequential batch, and of MonitorGenerated, must equal the
// core.Stats.Add of the per-check Results, recomputed here with direct
// CheckRA / CheckRAExtend calls. For the monitor that is every prefix check of
// every history, not only each history's final prefix. Strategies are off so
// the checks actually search.
func TestHistoryCheckStatsSumPerCheckResults(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20
	gen := RandomGenerator{Desc: d, Cfg: DefaultWorkload()}
	opts := core.CheckOptions{Exhaustive: true, MaxExtensions: 200000}
	o := Options{BatchWorkers: 1}
	checkOpts := o.Tune(opts)

	var want core.Stats
	wantTried := 0
	checkOpts.Session = search.NewSession()
	for i := 0; i < trials; i++ {
		h, _, err := gen.Generate(i)
		if err != nil {
			t.Fatal(err)
		}
		res := core.CheckRA(h, d.Spec, checkOpts)
		want.Add(res.Stats)
		wantTried += res.Tried
	}
	batch, err := CheckGeneratedAgainst(d.Name, d.Spec, opts, gen, trials, o)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Stats != want || batch.Tried != wantTried {
		t.Errorf("batch: Stats %+v Tried %d, per-check sum %+v Tried %d", batch.Stats, batch.Tried, want, wantTried)
	}
	if want.Nodes == 0 {
		t.Fatal("strategies are off, so the batch must search")
	}

	var wantMon, finalOnly core.Stats
	checkOpts.Session = search.NewSession()
	for i := 0; i < trials; i++ {
		h, _, err := gen.Generate(i)
		if err != nil {
			t.Fatal(err)
		}
		// Grow h op by op as MonitorHistory does: label k, then the direct
		// edges whose later endpoint is label k.
		g := core.NewHistory()
		var res core.Result
		for k := 0; k < h.Len(); k++ {
			l := h.LabelAt(k)
			if err := g.Add(l); err != nil {
				t.Fatal(err)
			}
			h.DirectVisEdges(func(from, to uint64) {
				rf, _ := h.RankOf(from)
				rt, _ := h.RankOf(to)
				if max(rf, rt) == k {
					if err := g.AddVis(from, to); err != nil {
						t.Fatal(err)
					}
				}
			})
			res = core.CheckRAExtend(g, d.Spec, []*core.Label{l}, checkOpts)
			wantMon.Add(res.Stats)
		}
		finalOnly.Add(res.Stats)
	}
	mon, err := MonitorGenerated(d.Name, d.Spec, opts, gen, trials, o)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Stats != wantMon {
		t.Errorf("monitor: Stats %+v, sum over every prefix %+v (final prefixes alone: %+v)", mon.Stats, wantMon, finalOnly)
	}
	if wantMon.Nodes <= finalOnly.Nodes {
		t.Fatalf("workload too easy: earlier prefixes searched no nodes (all prefixes %d, final prefixes %d)", wantMon.Nodes, finalOnly.Nodes)
	}
}

// TestMonitorGeneratedBatchDeadline checks that Options.Timeout bounds
// MonitorGenerated's whole batch, as it bounds the batch entry points: the
// run returns promptly after expiry, the history in flight and every trial
// never dispatched report Unknown with the deadline's reason, and the
// verdicts still partition the batch. A deadline derived per history would
// give each of the 200 slow histories its own 20ms, seconds in all.
func TestMonitorGeneratedBatchDeadline(t *testing.T) {
	const trials = 200
	gen := GeneratorFunc(func(trial int) (*core.History, int64, error) {
		return incsHistory(4, 4), int64(trial), nil
	})
	start := time.Now()
	res, err := MonitorGenerated("slow-monitor", slowSpec{}, core.CheckOptions{Exhaustive: true}, gen, trials, Options{Timeout: 20 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline expiry is a verdict, not an error: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bounded monitor batch took %v, want prompt return after the 20ms deadline", elapsed)
	}
	if res.Histories != trials || res.Unknown+res.Linearizable+res.Invalid != trials {
		t.Fatalf("verdict counts must partition the batch: %+v", res)
	}
	if res.Unknown == 0 || res.UnknownByReason[string(core.ReasonDeadline)] != res.Unknown {
		t.Fatalf("the 20ms deadline must leave trials Unknown, all for the deadline: %+v", res)
	}
}

// TestMonitorWidthDeterminism pins that the monitor's batch width changes no
// result (run under the race detector in CI): MonitorGenerated over more
// trials than the session keeps records for must report the same verdicts,
// folded search counters (justification steps included) and certificate
// replays, extend searches and rebuilds at 1 and at 4 workers. A finished
// replay that stayed recorded would fill the session to its record cap, and
// the clear there would drop other workers' in-flight records — those
// histories would rebuild, and the counters would depend on timing.
func TestMonitorWidthDeterminism(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 1200
	gen := RandomGenerator{Desc: d, Cfg: DefaultWorkload()}
	var first HistoryCheck
	for _, workers := range []int{1, 4} {
		got, err := MonitorGenerated(d.Name, d.Spec, d.CheckOptions(), gen, trials, Options{BatchWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.BatchWorkers != workers {
			t.Fatalf("monitor batch ran on %d workers, want %d", got.BatchWorkers, workers)
		}
		if workers == 1 {
			first = got
			if got.Replayed == 0 || got.JustSteps == 0 {
				t.Fatalf("workload too easy: no certificate replay justified a read: %+v", got)
			}
			continue
		}
		if got.Histories != first.Histories || got.Linearizable != first.Linearizable ||
			got.Invalid != first.Invalid || got.Unknown != first.Unknown ||
			!reflect.DeepEqual(got.ByStrategy, first.ByStrategy) || got.FailureExample != first.FailureExample ||
			got.Stats.FoldSteps() != first.Stats.FoldSteps() ||
			got.Replayed != first.Replayed || got.ExtendSearches != first.ExtendSearches || got.Rebuilds != first.Rebuilds {
			t.Errorf("4 workers: %d/%d valid, %d invalid, %d unknown, %+v, replayed %d, searched %d, rebuilt %d;\n1 worker:  %d/%d valid, %d invalid, %d unknown, %+v, replayed %d, searched %d, rebuilt %d",
				got.Linearizable, got.Histories, got.Invalid, got.Unknown, got.Stats.FoldSteps(), got.Replayed, got.ExtendSearches, got.Rebuilds,
				first.Linearizable, first.Histories, first.Invalid, first.Unknown, first.Stats.FoldSteps(), first.Replayed, first.ExtendSearches, first.Rebuilds)
		}
	}
}

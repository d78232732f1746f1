package scenario

import (
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
)

// TestRunDeterministic asserts the engine's central contract: the same
// scenario and seed yield a byte-identical history, run after run.
func TestRunDeterministic(t *testing.T) {
	for _, sc := range All() {
		for _, seed := range []int64{1, 42, 7919} {
			a, err := Run(sc, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			b, err := Run(sc, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			if a.String() != b.String() {
				t.Errorf("%s seed %d: two runs produced different histories:\n%s\n--- vs ---\n%s",
					sc.Name, seed, a, b)
			}
		}
	}
}

// TestScenarioHistoriesWellFormed sanity-checks every library scenario: it
// runs, produces a non-empty history, and its plan resolves.
func TestScenarioHistoriesWellFormed(t *testing.T) {
	for _, sc := range All() {
		h, err := Run(sc, 1)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if h.Len() == 0 {
			t.Errorf("%s: empty history", sc.Name)
		}
		if _, err := sc.Plan(); err != nil {
			t.Errorf("%s: plan: %v", sc.Name, err)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("Lookup(%q) returned %q", name, sc.Name)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup of an unknown scenario did not fail")
	}
}

// TestGeneratorDeterministicAcrossWorkers runs each scenario through the
// harness batch pipeline sequentially and with four workers and asserts the
// verdicts and summed search counters are identical — batch parallelism must
// not leak into results.
func TestGeneratorDeterministicAcrossWorkers(t *testing.T) {
	const trials = 8
	for _, sc := range All() {
		plan, err := sc.Plan()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		opts := plan.Options
		gen := Generator{Scenario: sc, Seed: 1}
		var runs []harness.HistoryCheck
		for _, workers := range []int{1, 1, 4} {
			res, err := harness.CheckGeneratedAgainst(sc.Name, plan.Spec, opts, gen, trials,
				harness.Options{BatchWorkers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sc.Name, workers, err)
			}
			runs = append(runs, res)
		}
		// Sequential reruns must agree exactly.
		if runs[0].Histories != runs[1].Histories || runs[0].Linearizable != runs[1].Linearizable ||
			runs[0].Nodes != runs[1].Nodes || runs[0].FailureExample != runs[1].FailureExample {
			t.Errorf("%s: sequential reruns disagree: %+v vs %+v", sc.Name, runs[0], runs[1])
		}
		// Parallel batch checking must not change any verdict or count.
		for _, r := range runs[1:] {
			if r.Histories != runs[0].Histories || r.Linearizable != runs[0].Linearizable ||
				r.Operations != runs[0].Operations || r.FailureExample != runs[0].FailureExample ||
				r.Stats.FoldSteps() != runs[0].Stats.FoldSteps() {
				t.Errorf("%s: worker counts disagree: %+v vs %+v", sc.Name, runs[0], r)
			}
		}
	}
}

// TestHLCGeneratorContract asserts that HLC-timestamped scenario histories
// keep the paper's timestamp generator contract (Figure 7): every timestamped
// label is strictly above every timestamped label visible to it. The
// timestamp-order linearization strategy (Theorem 4.6) is only sound under
// this contract.
func TestHLCGeneratorContract(t *testing.T) {
	sc, err := Lookup("hot-key")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.UseHLC {
		t.Fatal("hot-key no longer uses the HLC; the contract test needs an HLC scenario")
	}
	for seed := int64(1); seed <= 20; seed++ {
		h, err := Run(sc, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		labels := h.Labels()
		for _, a := range labels {
			if a.TS.IsBottom() {
				continue
			}
			for _, b := range labels {
				if b.TS.IsBottom() || !h.Vis(a.ID, b.ID) {
					continue
				}
				if !a.TS.Less(b.TS) {
					t.Fatalf("seed %d: visible %v (ts %v) not below %v (ts %v)", seed, a, a.TS, b, b.TS)
				}
			}
		}
	}
}

// TestHotKeyDesignatedStrategyHolds asserts the point of the hot-key
// scenario: the timestamp-order strategy still finds witnesses on
// HLC-timestamped histories under clock skew, partitions and key contention.
func TestHotKeyDesignatedStrategyHolds(t *testing.T) {
	sc, err := Lookup("hot-key")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Plan()
	if err != nil {
		t.Fatal(err)
	}
	gen := Generator{Scenario: sc, Seed: 1}
	res, err := harness.CheckGeneratedAgainst(sc.Name, plan.Spec, plan.Options, gen, 15, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable != res.Histories {
		t.Fatalf("hot-key histories not RA-linearizable under the designated strategy: %+v", res)
	}
}

// TestNaiveScenariosRefute asserts that each naive-mode scenario actually
// provokes the anomaly it was designed around within its fixed seed window.
func TestNaiveScenariosRefute(t *testing.T) {
	for name, trials := range map[string]int{
		"partition-heal":    40,
		"long-fork-attempt": 10,
	} {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sc.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if !plan.ExpectRefutations {
			t.Fatalf("%s is no longer a naive-mode scenario", name)
		}
		gen := Generator{Scenario: sc, Seed: 1}
		res, err := harness.CheckGeneratedAgainst(sc.Name, plan.Spec, plan.Options, gen, trials, harness.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Linearizable == res.Histories {
			t.Errorf("%s: no refutations in %d trials; the fault schedule no longer provokes its anomaly", name, trials)
		}
	}
}

// probeMetrics aggregates the comparison probe's hardness counters.
type probeMetrics struct {
	refuted       int
	nodes         int
	pruned        int
	tried         int
	observedRaces int
}

// observedRaces counts pairs of concurrent updates that some query sees
// merged: the conflicts whose resolution the history actually pins down, and
// therefore the visibility patterns the checker has to explain. Uniform
// random workloads leave most of their concurrency unobserved (replicas
// rarely converge); a fault schedule's heal-and-read phases are built to
// force these observations.
func observedRaces(h *core.History) int {
	labels := h.Labels()
	n := 0
	for i, a := range labels {
		if a.Kind == core.KindQuery {
			continue
		}
		for _, b := range labels[i+1:] {
			if b.Kind == core.KindQuery || h.Vis(a.ID, b.ID) || h.Vis(b.ID, a.ID) {
				continue
			}
			for _, q := range labels {
				if q.Kind == core.KindQuery && h.Vis(a.ID, q.ID) && h.Vis(b.ID, q.ID) {
					n++
					break
				}
			}
		}
	}
	return n
}

func (m *probeMetrics) add(res core.Result) {
	if res.Verdict != core.VerdictValid {
		m.refuted++
	}
	m.nodes += res.Nodes
	m.pruned += res.Pruned
	m.tried += res.Tried
}

// scenarioMetrics checks trials scenario histories under a sequential
// exhaustive probe and returns the hardness counters, plus the per-trial
// label counts (for generating a fair uniform baseline).
func scenarioMetrics(t *testing.T, sc Scenario, trials int) (probeMetrics, []int) {
	t.Helper()
	plan, err := sc.Plan()
	if err != nil {
		t.Fatal(err)
	}
	opts := probeOptions(plan.Options)
	var m probeMetrics
	var labelCounts []int
	for i := 0; i < trials; i++ {
		seed := int64(1 + i*7919)
		h, err := Run(sc, seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
		}
		if plan.Transform != nil {
			h = plan.Transform(h)
		}
		labelCounts = append(labelCounts, h.Len())
		m.observedRaces += observedRaces(h)
		m.add(core.CheckRA(h, plan.Spec, opts))
	}
	return m, labelCounts
}

// uniformMetrics checks uniform random histories of the scenario's descriptor
// under the same probe, with the same per-trial operation counts and alphabet.
func uniformMetrics(t *testing.T, sc Scenario, labelCounts []int) probeMetrics {
	t.Helper()
	d, err := registry.Lookup(sc.CRDT)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Plan()
	if err != nil {
		t.Fatal(err)
	}
	opts := probeOptions(plan.Options)
	var m probeMetrics
	for i, ops := range labelCounts {
		cfg := harness.WorkloadConfig{
			Seed:         int64(1 + i*7919),
			Ops:          ops,
			Replicas:     sc.Replicas,
			Elems:        sc.Elems,
			DeliveryProb: 40,
		}
		h, err := harness.RunRandom(d, cfg)
		if err != nil {
			t.Fatalf("%s uniform trial %d: %v", sc.Name, i, err)
		}
		if plan.Transform != nil {
			h = plan.Transform(h)
		}
		m.observedRaces += observedRaces(h)
		m.add(core.CheckRA(h, plan.Spec, opts))
	}
	return m
}

// probeOptions makes the comparison probe: sequential pruned exhaustive
// search with no constructive strategies, so node counts measure how hard the
// history is rather than how lucky a strategy got.
func probeOptions(opts core.CheckOptions) core.CheckOptions {
	opts.Strategies = nil
	opts.Exhaustive = true
	opts.Engine = core.EnginePruned
	return opts
}

// TestScenariosBeatUniformRandom is the acceptance comparison against
// uniform random generation with matched per-trial operation counts and
// alphabets, under a common sequential exhaustive probe.
//
// Two different effects are asserted. Refutation-driving (naive-mode)
// scenarios must refute strictly more often — and on at least one descriptor
// also drive the search through strictly more nodes — than uniform random.
// The positive scenarios check constructively no matter the workload (a
// query's return is explained by its visible updates alone, so a witness is
// found on the first descent and Nodes ≈ labels+1 for any linearizable
// history); their measurable product is structure, so they must pile up
// strictly more concurrent label pairs than uniform random does.
func TestScenariosBeatUniformRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison sweep is slow")
	}
	// partition-heal's cross-race is rare (a few percent of seeds), so its
	// window is wider than the default.
	trialsFor := map[string]int{"partition-heal": 40}
	nodesAndRefutations := false
	for _, sc := range All() {
		trials := 25
		if n, ok := trialsFor[sc.Name]; ok {
			trials = n
		}
		s, counts := scenarioMetrics(t, sc, trials)
		u := uniformMetrics(t, sc, counts)
		t.Logf("%-20s scenario: %3d refuted %7d nodes %7d observed races | uniform: %3d refuted %7d nodes %7d observed races",
			sc.Name, s.refuted, s.nodes, s.observedRaces, u.refuted, u.nodes, u.observedRaces)
		plan, err := sc.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if plan.ExpectRefutations {
			if s.refuted <= u.refuted {
				t.Errorf("%s: scenario refuted %d times, uniform random %d — the fault schedule is not provoking its anomaly",
					sc.Name, s.refuted, u.refuted)
			}
			if s.refuted > u.refuted && s.nodes > u.nodes {
				nodesAndRefutations = true
			}
		} else if s.observedRaces <= u.observedRaces {
			t.Errorf("%s: scenario forced %d observed races, uniform random %d — the fault schedule is not pinning down its conflicts",
				sc.Name, s.observedRaces, u.observedRaces)
		}
	}
	if !nodesAndRefutations {
		t.Error("no scenario beat uniform random on both refutations and search nodes")
	}
}

// TestCorpusRoundTrip pushes each scenario's (transformed) history through
// the corpus codec and back, asserting byte-identical reconstruction.
func TestCorpusRoundTrip(t *testing.T) {
	for _, sc := range All() {
		plan, err := sc.Plan()
		if err != nil {
			t.Fatal(err)
		}
		h, err := Run(sc, 1)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if plan.Transform != nil {
			h = plan.Transform(h)
		}
		labels, vis, err := EncodeHistory(h)
		if err != nil {
			t.Fatalf("%s: encode: %v", sc.Name, err)
		}
		e := Entry{
			Scenario: sc.Name, CRDT: sc.CRDT, Mode: string(sc.Mode), Spec: plan.SpecName,
			Seed: 1, Labels: labels, Vis: vis,
		}
		back, err := e.History()
		if err != nil {
			t.Fatalf("%s: decode: %v", sc.Name, err)
		}
		if h.String() != back.String() {
			t.Errorf("%s: corpus round trip changed the history:\n%s\n--- vs ---\n%s", sc.Name, h, back)
		}
	}
}

// TestCorpusFileRoundTrip exercises the file layer: write an entry, read it
// back, replay the check, and require the recorded verdict.
func TestCorpusFileRoundTrip(t *testing.T) {
	sc, err := Lookup("long-fork-attempt")
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := Harvest(sc, 1, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("harvest kept no entries")
	}
	dir := t.TempDir()
	for _, e := range entries {
		path := dir + "/" + e.Scenario + ".json"
		if err := WriteEntry(path, e); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEntry(path)
		if err != nil {
			t.Fatal(err)
		}
		h, err := got.History()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := got.Plan()
		if err != nil {
			t.Fatal(err)
		}
		opts := plan.Options
		res := core.CheckRA(h, plan.Spec, opts)
		if (res.Verdict == core.VerdictValid) != got.RALinearizable {
			t.Errorf("replayed verdict %v, corpus recorded RA-linearizable=%v", res.Verdict, got.RALinearizable)
		}
	}
}

// TestHarvestRejectsNegativeTrials checks that Harvest reports a negative
// trial count as an error instead of harvesting nothing without a word.
func TestHarvestRejectsNegativeTrials(t *testing.T) {
	sc, err := Lookup("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := Harvest(sc, 1, -1, 2)
	if err == nil || len(entries) != 0 {
		t.Errorf("Harvest(trials=-1) = %d entries, err %v; want an error", len(entries), err)
	}
}

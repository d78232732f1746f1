package main

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"ralin/internal/core"
	"ralin/internal/search"
	"ralin/internal/spec"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smoke(t *testing.T, w workload, trace bool) result {
	t.Helper()
	res, err := runWorkload(w, config{seed: 1, trace: trace, smoke: true})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d decisions failed (first: %s)", w.name, res.Failed, res.Attempted, res.firstFailure)
	}
	return res
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and traced,
// through the functions the command uses, and checks that each reports
// exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	units := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			want := units(b.EndToEnd)
			if trace {
				want = units(b.PerLayer)
			}
			res := smoke(t, w, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.name, trace, name, m.Unit, unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestDeterministicCounts checks that the work counts a later change may cite
// repeat exactly across runs.
func TestDeterministicCounts(t *testing.T) {
	for _, w := range workloads() {
		a, b := smoke(t, w, true), smoke(t, w, true)
		for _, name := range []string{"check.calls", "harness.batch.calls", "search.nodes", "core.strategy.calls", "search.run.calls", "search.extend.replayed_ratio"} {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s is %v, then %v", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestSplit checks that a scenario's or CRDT's inputs are cut into batches of
// batchSize that cover every history once, each knowing where it starts.
func TestSplit(t *testing.T) {
	n := 2*batchSize + 3
	g := group{name: "g", hs: make([]*core.History, n), ref: make([]core.Verdict, n)}
	for i := range g.ref {
		g.ref[i] = core.Verdict(i % 3)
	}
	next := 0
	for _, b := range g.split() {
		if b.first != next || len(b.hs) != len(b.ref) || len(b.hs) == 0 || len(b.hs) > batchSize {
			t.Fatalf("batch from %d with %d histories and %d references, want it from %d", b.first, len(b.hs), len(b.ref), next)
		}
		for i, r := range b.ref {
			if r != g.ref[b.first+i] {
				t.Fatalf("batch from %d: reference %d is %v, want %v", b.first, i, r, g.ref[b.first+i])
			}
		}
		next += len(b.hs)
	}
	if next != n {
		t.Fatalf("batches cover %d histories, want %d", next, n)
	}
}

// TestCounterOracleMatchesLegacy checks the closed-form reference of
// refute-wide against the legacy enumerator, which tries every linear
// extension, on refute-wide-shaped histories small enough to enumerate.
func TestCounterOracleMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	legacy := core.CheckOptions{Exhaustive: true, Engine: core.EngineLegacy}
	seen := map[core.Verdict]int{}
	for k := 1; k <= 7; k++ {
		for _, invalid := range []bool{false, true} {
			for deliveries := 0; deliveries <= 2; deliveries++ {
				h := wideCounter(rng, k, deliveries, invalid)
				got, err := counterOracle(h)
				if err != nil {
					t.Fatal(err)
				}
				want := core.CheckRA(h, spec.Counter{}, legacy).Verdict
				if got != want {
					t.Errorf("k=%d invalid=%v deliveries=%d: oracle %v, legacy enumerator %v\n%v", k, invalid, deliveries, got, want, h)
				}
				seen[got]++
			}
		}
	}
	if seen[core.VerdictValid] == 0 || seen[core.VerdictInvalid] == 0 {
		t.Fatalf("both polarities must be covered: %v", seen)
	}
}

// TestPlantedFaultsFail checks that the verification catches a flipped
// reference verdict, in a per-history and in a batch workload, and a
// corrupted witness.
func TestPlantedFaultsFail(t *testing.T) {
	inst, err := setupRefuteWide(1, true)
	if err != nil {
		t.Fatal(err)
	}
	refute := inst.(*refuteInstance)
	refute.ref[0] = core.VerdictValid
	v := &verifier{}
	refute.pass(v)
	if v.failed != 1 {
		t.Errorf("refute-wide with one flipped reference: %d of %d failed, want 1", v.failed, v.attempted)
	}

	inst, err = setupScenarioExhaustive(1, true)
	if err != nil {
		t.Fatal(err)
	}
	batch := inst.(*batchInstance)
	g := &batch.groups[0]
	if g.ref[0] == core.VerdictValid {
		g.ref[0] = core.VerdictInvalid
	} else {
		g.ref[0] = core.VerdictValid
	}
	v = &verifier{}
	batch.pass(v)
	if v.failed != 1 {
		t.Errorf("scenario-exhaustive with one flipped reference: %d of %d failed, want 1", v.failed, v.attempted)
	}

	inst, err = setupFig12(1, true)
	if err != nil {
		t.Fatal(err)
	}
	g = &inst.(*batchInstance).groups[0]
	var h *core.History
	var witness []*core.Label
	for _, cand := range g.hs {
		if res := core.CheckRA(cand, g.spec, g.opts); res.Verdict == core.VerdictValid && res.Rewritten.Len() >= 2 {
			h, witness = res.Rewritten, res.Linearization
			if !h.Concurrent(witness[0].ID, witness[1].ID) {
				break
			}
		}
	}
	if h == nil || h.Concurrent(witness[0].ID, witness[1].ID) {
		t.Fatal("no smoke history with two visibility-ordered first witness labels")
	}
	v = &verifier{}
	k := key{workload: "test", hist: 0, prefix: -1}
	v.witness(k, h, witness, g.spec)
	corrupted := slices.Clone(witness)
	corrupted[0], corrupted[1] = corrupted[1], corrupted[0]
	v.witness(k, h, corrupted, g.spec)
	if v.failed != 1 {
		t.Errorf("a valid and a corrupted witness: %d failed, want 1 (%s)", v.failed, v.first)
	}
}

// TestSpanSchema pins the span JSONL line format.
func TestSpanSchema(t *testing.T) {
	k := key{workload: "monitor-orset", hist: 3, prefix: 7}
	rec := spanRecord{Trace: k.String(), span: span{
		ID: 2, Parent: 1, Name: "search.extend", Start: 10, End: 25,
		Attrs: &spanAttrs{CRDT: "OR-Set", Scenario: "partition-heal", Verdict: "valid", Nodes: 4},
	}}
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"trace":"monitor-orset/3/7","span":2,"parent":1,"name":"search.extend","start_ns":10,"end_ns":25,` +
		`"attrs":{"crdt":"OR-Set","scenario":"partition-heal","verdict":"valid","nodes":4}}`
	if string(got) != want {
		t.Errorf("span line\n got %s\nwant %s", got, want)
	}
	rec = spanRecord{Trace: key{workload: "w", group: "g", hist: 1, prefix: -1}.String(), span: span{ID: 1, Name: "check", End: 5}}
	got, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want = `{"trace":"w/g/1","span":1,"parent":0,"name":"check","start_ns":0,"end_ns":5}`
	if string(got) != want {
		t.Errorf("span line\n got %s\nwant %s", got, want)
	}
}

// TestSelfTimes checks the self-time computation: nested spans' self times
// sum to the root's duration, and children that overlap each other or spill
// past their parent are counted once and clipped.
func TestSelfTimes(t *testing.T) {
	nested := []span{
		{ID: 1, Name: "check", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.rewrite", Start: 5, End: 20},
		{ID: 3, Parent: 1, Name: "search.run", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "inner", Start: 40, End: 60},
	}
	self := selfTimes(nested, nil)
	if want := []int64{25, 15, 40, 20}; !slices.Equal(self, want) {
		t.Errorf("nested self times %v, want %v", self, want)
	}
	var sum int64
	for i, s := range nested {
		if self[i] < 0 || self[i] > s.End-s.Start {
			t.Errorf("span %s: self %d outside [0, %d]", s.Name, self[i], s.End-s.Start)
		}
		sum += self[i]
	}
	if sum != nested[0].End-nested[0].Start {
		t.Errorf("self times sum to %d, root lasted %d", sum, nested[0].End-nested[0].Start)
	}

	messy := []span{
		{ID: 1, Name: "check", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	if got, want := selfTimes(messy, nil), []int64{50, 20, 30, 30}; !slices.Equal(got, want) {
		t.Errorf("overlapping self times %v, want %v", got, want)
	}

	// Through a recorder: the folded layer self times plus the roots' own
	// self time account for every root span.
	r := newTracer("").recorder()
	for i := 0; i < 3; i++ {
		root := r.start("check")
		s := r.start("core.rewrite")
		r.end(s)
		s = r.start("search.run")
		r.end(s)
		r.end(root)
		r.finish(key{workload: "w", hist: i, prefix: -1}, quarter(i, 3))
	}
	var layerSelf int64
	for _, st := range r.agg.layers {
		layerSelf += st.selfNs
	}
	if layerSelf+r.agg.rootSelfNs != r.agg.rootNs {
		t.Errorf("layer self %d + root self %d != root time %d", layerSelf, r.agg.rootSelfNs, r.agg.rootNs)
	}
}

// TestDecomposedMatchesCheckRA checks that the traced pipeline decides every
// smoke history exactly as core.CheckRA does, with and without a session.
func TestDecomposedMatchesCheckRA(t *testing.T) {
	type input struct {
		name string
		h    *core.History
		sp   core.Spec
		opts core.CheckOptions
	}
	var inputs []input
	for _, w := range workloads() {
		inst, err := w.setup(1, true)
		if err != nil {
			t.Fatal(err)
		}
		switch in := inst.(type) {
		case *batchInstance:
			for _, g := range in.groups {
				for _, h := range g.hs {
					inputs = append(inputs, input{w.name + "/" + g.name, h, g.spec, g.opts})
				}
			}
		case *refuteInstance:
			for _, h := range in.hs {
				inputs = append(inputs, input{w.name, h, in.spec, in.opts})
			}
		case *monitorInstance:
			for _, s := range in.streams {
				g := core.NewHistory()
				for k, l := range s.labels {
					if err := appendOp(g, l, s.edges[k]); err != nil {
						t.Fatal(err)
					}
				}
				inputs = append(inputs, input{w.name, g, in.spec, in.opts})
			}
		}
	}
	r := newTracer("").recorder()
	sess := search.NewSession()
	for i, in := range inputs {
		for _, withSession := range []bool{false, true} {
			opts := in.opts
			if withSession {
				opts.Session = sess
			}
			want := core.CheckRA(in.h, in.sp, opts).Verdict
			got := checkTraced(r, key{workload: in.name, hist: i, prefix: -1}, 0, "", "", in.h, in.sp, opts).verdict
			if got != want {
				t.Errorf("%s history %d (session %v): decomposed %v, CheckRA %v", in.name, i, withSession, got, want)
			}
		}
	}
}

// TestCommandRejectsBadArguments checks the exit codes of the command line.
func TestCommandRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--trace", "2"},
		{"--seconds", "-1"},
		{"--no-such-flag"},
		{"--workload", "refute-wide", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

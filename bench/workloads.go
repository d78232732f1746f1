package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/scenario"
	"ralin/internal/search"
	"ralin/internal/spec"
)

// workload is one benchmark workload: how to build its inputs and reference
// answers from a seed. README.md and BENCHMARK.json record why each exists.
type workload struct {
	name  string
	setup func(seed int64, smoke bool) (instance, error)
}

// instance is a set-up workload: its inputs, their reference verdicts, and
// the two ways of running them.
type instance interface {
	// pass runs the timed configuration once over every input through the
	// checker's public entry points, verifying each decision.
	pass(v *verifier) passStats
	// tracedPass runs the same inputs through the decomposed pipeline,
	// recording a span around each call into a layer. It returns the pass's
	// wall time, measured as passStats.wall is, and its work counts.
	tracedPass(t *tracer, v *verifier) (time.Duration, counts)
	// setupTimes splits the set-up into input generation and reference
	// answers.
	setupTimes() (generate, reference time.Duration)
}

// workloads lists the workloads in run order.
func workloads() []workload {
	return []workload{
		{name: "scenario-exhaustive", setup: setupScenarioExhaustive},
		{name: "fig12-designated", setup: setupFig12},
		{name: "monitor-orset", setup: setupMonitor},
		{name: "refute-wide", setup: setupRefuteWide},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workers is the width of the batch workloads' batch pool and of set-up's
// fan-out: two, never more than the CPUs.
func workers() int { return min(2, runtime.NumCPU()) }

// forEach calls fn(i) for every i < n on workers() goroutines and returns
// the error of the lowest i that failed. Set-up uses it for generation and
// reference answers, which are independent per history.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	fanOut(workers(), n, func(_, i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// generate draws histories 0..n-1 from gen.
func generate(gen harness.HistoryGenerator, n int) ([]*core.History, error) {
	hs := make([]*core.History, n)
	err := forEach(n, func(i int) (err error) {
		hs[i], _, err = gen.Generate(i)
		return err
	})
	return hs, err
}

// fanOut calls fn(w, i) for every i < n on goroutines w = 0..workers-1, each
// taking the next index when it finishes one, and returns when all are done.
func fanOut(workers, n int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// group is one batch: histories of one scenario or CRDT checked against one
// specification by one CheckHistoryBatch call.
type group struct {
	name string
	crdt string
	// scenario is the scenario name, empty for random workloads.
	scenario string
	spec     core.Spec
	opts     core.CheckOptions
	// first is the index of hs[0] among its scenario's or CRDT's histories.
	first int
	hs    []*core.History
	ref   []core.Verdict
}

// batchSize is the number of histories one CheckHistoryBatch call checks. A
// batch of a few hundred is what one CLI run checks; splitting each scenario's
// or CRDT's inputs into several batches also gives the latency quantiles many
// calls, so one heavy history moves a single call, not a whole type's.
const batchSize = 500

// split cuts g into batches of at most batchSize histories.
func (g group) split() []group {
	var out []group
	for lo := 0; lo < len(g.hs); lo += batchSize {
		b := g
		hi := min(lo+batchSize, len(g.hs))
		b.first, b.hs, b.ref = lo, g.hs[lo:hi], g.ref[lo:hi]
		out = append(out, b)
	}
	return out
}

// batchInstance is a batch workload: one CheckHistoryBatch call per group
// per pass, each over a fresh session, as one CLI batch is.
type batchInstance struct {
	workload      string
	groups        []group
	batch         harness.Options
	genTime       time.Duration
	referenceTime time.Duration
}

func (b *batchInstance) setupTimes() (time.Duration, time.Duration) {
	return b.genTime, b.referenceTime
}

func (b *batchInstance) pass(v *verifier) passStats {
	var st passStats
	start := time.Now()
	for _, g := range b.groups {
		t0 := time.Now()
		out, err := harness.CheckHistoryBatch(g.name, g.spec, g.opts, g.hs, b.batch)
		st.calls = append(st.calls, time.Since(t0))
		st.decisions += len(g.hs)
		v.batch(fmt.Sprintf("%s/%s from history %d", b.workload, g.name, g.first), g.ref, out, err)
	}
	st.wall = time.Since(start)
	return st
}

// tracedPass checks every group through the decomposed pipeline, one trace
// per history, with the batch pool's shape: batch.BatchWorkers goroutines
// over one fresh session per group. Witnesses are validated after the pass.
func (b *batchInstance) tracedPass(t *tracer, v *verifier) (time.Duration, counts) {
	c := counts{batchCalls: len(b.groups), batchWorkers: b.batch.BatchWorkers}
	type found struct {
		k   key
		h   *core.History
		seq []*core.Label
		sp  core.Spec
	}
	var witnesses []found
	start := time.Now()
	for gi := range b.groups {
		g := &b.groups[gi]
		outs := make([]outcome, len(g.hs))
		c.interned += b.tracedGroup(t, g, outs)
		for i, o := range outs {
			k := key{workload: b.workload, group: g.name, hist: g.first + i, prefix: -1}
			c.add(o)
			v.verdict(k, g.ref[i], o.verdict)
			if o.verdict == core.VerdictValid && o.searched {
				witnesses = append(witnesses, found{k, o.rewritten, o.witness, g.spec})
			}
		}
	}
	wall := time.Since(start)
	for _, w := range witnesses {
		v.witness(w.k, w.h, w.seq, w.sp)
	}
	return wall, c
}

// tracedGroup checks g's histories into outs over one fresh session, spread
// over the batch pool's workers in index order as the pool dispatches them,
// and returns the number of states the session interned.
//
// This is not the pool CheckHistoryBatch runs: workers here take indices from
// a shared counter, where the pool hands each over an unbuffered channel and
// then folds per-trial results in order. What the pool costs beyond the
// checks is reported as harness.batch.busy_s. Both batch workloads pin
// Parallelism to 1, so the pool's adaptive split of the CPUs between batch
// and search workers is off and the two run every search alike.
func (b *batchInstance) tracedGroup(t *tracer, g *group, outs []outcome) int {
	sess := search.NewSessionWithBudget(b.batch.Budget)
	opts := b.batch.Tune(g.opts)
	opts.Session = sess
	workers := b.batch.BatchWorkers
	recs := make([]*recorder, workers)
	for w := range recs {
		recs[w] = t.recorder()
	}
	fanOut(workers, len(g.hs), func(w, i int) {
		k := key{workload: b.workload, group: g.name, hist: g.first + i, prefix: -1}
		outs[i] = checkTraced(recs[w], k, quarter(i, len(g.hs)), g.crdt, g.scenario, g.hs[i], g.spec, opts)
	})
	for _, r := range recs {
		t.merge(r)
	}
	return sess.InternedStates()
}

// setupScenarioExhaustive generates every library scenario's histories and
// decides each with the memo-less reference search.
func setupScenarioExhaustive(seed int64, smoke bool) (instance, error) {
	n := 2000
	if smoke {
		n = 12
	}
	b := &batchInstance{
		workload: "scenario-exhaustive",
		batch:    harness.Options{BatchWorkers: workers(), Parallelism: 1},
	}
	for _, sc := range scenario.All() {
		plan, err := sc.Plan()
		if err != nil {
			return nil, err
		}
		opts := plan.Options
		opts.Strategies = nil
		g := group{name: sc.Name, crdt: sc.CRDT, scenario: sc.Name, spec: plan.Spec, opts: opts}
		start := time.Now()
		if g.hs, err = generate(scenario.Generator{Scenario: sc, Seed: seed}, n); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		b.genTime += time.Since(start)
		start = time.Now()
		g.ref = make([]core.Verdict, n)
		err = forEach(n, func(i int) (err error) {
			if g.ref[i], err = searchOracle(g.hs[i], g.spec, opts); err != nil {
				err = fmt.Errorf("%s history %d: %w", sc.Name, i, err)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		b.referenceTime += time.Since(start)
		b.groups = append(b.groups, g.split()...)
	}
	return b, nil
}

// setupFig12 generates random histories of every Figure 12 type in the
// default workload shape. Every one is Valid (Figure 12); set-up confirms it
// with each history's designated linearization.
func setupFig12(seed int64, smoke bool) (instance, error) {
	n := 4000
	if smoke {
		n = 12
	}
	// The designated strategies decide every history, so no search runs and
	// pinning Parallelism changes no work; it only turns off the pool's
	// adaptive split, which the traced pass would otherwise have to copy.
	b := &batchInstance{workload: "fig12-designated", batch: harness.Options{BatchWorkers: workers(), Parallelism: 1}}
	for _, d := range registry.Fig12() {
		g := group{name: d.Name, crdt: d.Name, spec: d.Spec, opts: d.CheckOptions()}
		cfg := harness.DefaultWorkload()
		cfg.Seed = seed
		start := time.Now()
		var err error
		if g.hs, err = generate(harness.RandomGenerator{Desc: d, Cfg: cfg}, n); err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		b.genTime += time.Since(start)
		start = time.Now()
		err = forEach(n, func(i int) error {
			if err := designatedWitness(g.hs[i], g.spec, g.opts); err != nil {
				return fmt.Errorf("%s history %d is not Valid by its designated linearization: %w", d.Name, i, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		g.ref = slices.Repeat([]core.Verdict{core.VerdictValid}, n)
		b.referenceTime += time.Since(start)
		b.groups = append(b.groups, g.split()...)
	}
	return b, nil
}

// stream is a finished history replayed as a monitor sees it: labels in
// insertion order, each delivered with the direct visibility edges whose
// later endpoint it is. This is the bucketing harness.MonitorHistory does
// internally; the benchmark repeats it because it times every prefix, and
// MonitorHistory reports only per-history totals.
type stream struct {
	labels []*core.Label
	edges  [][]core.VisEdge
}

func newStream(h *core.History) (stream, error) {
	s := stream{labels: h.Labels(), edges: make([][]core.VisEdge, h.Len())}
	var err error
	h.DirectVisEdges(func(from, to uint64) {
		rf, okf := h.RankOf(from)
		rt, okt := h.RankOf(to)
		if !okf || !okt {
			err = fmt.Errorf("edge %d -> %d has an endpoint outside the history", from, to)
			return
		}
		k := max(rf, rt)
		s.edges[k] = append(s.edges[k], core.VisEdge{From: from, To: to})
	})
	return s, err
}

// appendOp grows g by one operation and its edges.
func appendOp(g *core.History, l *core.Label, edges []core.VisEdge) error {
	if err := g.Add(l); err != nil {
		return err
	}
	for _, e := range edges {
		if err := g.AddVis(e.From, e.To); err != nil {
			return err
		}
	}
	return nil
}

// monitorInstance replays long OR-Set histories op by op through
// core.CheckRAExtend, one history after another over one session per pass,
// as harness.MonitorGenerated (the CLI's -incremental path) does.
type monitorInstance struct {
	spec          core.Spec
	opts          core.CheckOptions
	streams       []stream
	genTime       time.Duration
	referenceTime time.Duration
}

func (m *monitorInstance) setupTimes() (time.Duration, time.Duration) {
	return m.genTime, m.referenceTime
}

func setupMonitor(seed int64, smoke bool) (instance, error) {
	histories, ops := 48, 256
	if smoke {
		histories, ops = 2, 48
	}
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		return nil, err
	}
	m := &monitorInstance{spec: d.Spec, opts: d.CheckOptions()}
	cfg := harness.WorkloadConfig{Seed: seed, Ops: ops, Replicas: 3, Elems: []string{"a", "b", "c"}, DeliveryProb: 40}
	start := time.Now()
	hs, err := generate(harness.RandomGenerator{Desc: d, Cfg: cfg}, histories)
	if err != nil {
		return nil, err
	}
	m.streams = make([]stream, histories)
	for i, h := range hs {
		if m.streams[i], err = newStream(h); err != nil {
			return nil, fmt.Errorf("history %d: %w", i, err)
		}
	}
	m.genTime = time.Since(start)
	// Every prefix of an OR-Set history is itself an OR-Set history, so each
	// is Valid by Figure 12; set-up confirms the whole histories.
	start = time.Now()
	err = forEach(histories, func(i int) error {
		if err := designatedWitness(hs[i], m.spec, m.opts); err != nil {
			return fmt.Errorf("history %d is not Valid by its designated linearization: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.referenceTime = time.Since(start)
	return m, nil
}

// replayed is what replaying one stream decided.
type replayed struct {
	// prefixes is the number of prefixes decided; notValid counts those not
	// decided Valid, the first of them described by first.
	prefixes, notValid int
	first              string
	// err stops the replay: an append the history refused.
	err error
	// last is the result of the last prefix, whose witness covers the whole
	// history; earlier witnesses are over a rewritten history that has grown
	// in place since.
	last core.Result
}

// replay grows a fresh history along stream si one operation at a time and
// re-verifies each prefix with core.CheckRAExtend, appending each prefix's
// latency to lat and its work to c. With a recorder, each prefix is one
// trace: a root span around an append span and an Extend span.
func (m *monitorInstance) replay(si int, opts core.CheckOptions, r *recorder, lat *[]time.Duration, c *counts) replayed {
	s := m.streams[si]
	var out replayed
	g := core.NewHistory()
	newOps := make([]*core.Label, 1)
	for k, l := range s.labels {
		t0 := time.Now()
		root := r.start("prefix")
		app := r.start("core.history")
		err := appendOp(g, l, s.edges[k])
		r.end(app)
		if err != nil {
			r.end(root)
			r.finish(key{workload: "monitor-orset", hist: si, prefix: k}, quarter(k, len(s.labels)))
			out.err = fmt.Errorf("prefix %d: %w", k, err)
			return out
		}
		newOps[0] = l
		ext := r.start("search.extend")
		res := core.CheckRAExtend(g, m.spec, newOps, opts)
		r.end(ext)
		r.end(root)
		*lat = append(*lat, time.Since(t0))
		r.set(ext, spanAttrs{Nodes: res.Nodes})
		r.set(root, spanAttrs{CRDT: "OR-Set", Verdict: res.Verdict.String(), Nodes: res.Nodes})
		r.finish(key{workload: "monitor-orset", hist: si, prefix: k}, quarter(k, len(s.labels)))
		c.addPrefix(len(s.edges[k]), res)
		out.prefixes++
		if res.Verdict != core.VerdictValid {
			if out.notValid == 0 {
				out.first = fmt.Sprintf("prefix %d: verdict %v", k, res.Verdict)
			}
			out.notValid++
		}
		out.last = res
	}
	return out
}

// run replays every stream once, in order, over a fresh session, and then
// verifies every prefix's verdict and every history's last witness. Recorder
// r is nil for an untraced pass.
func (m *monitorInstance) run(r *recorder, v *verifier) (passStats, counts) {
	sess := search.NewSession()
	opts := m.opts
	opts.Session = sess
	outs := make([]replayed, len(m.streams))
	var st passStats
	var c counts
	start := time.Now()
	for si := range m.streams {
		outs[si] = m.replay(si, opts, r, &st.calls, &c)
	}
	st.wall = time.Since(start)
	c.interned = sess.InternedStates()
	for si, o := range outs {
		k := key{workload: "monitor-orset", hist: si, prefix: -1}
		st.decisions += o.prefixes
		v.prefixes(k, o.prefixes, o.notValid, o.first)
		if o.err != nil {
			v.failure(k, o.err)
		} else if o.last.Verdict == core.VerdictValid {
			v.witness(k, o.last.Rewritten, o.last.Linearization, m.spec)
		}
	}
	return st, c
}

func (m *monitorInstance) pass(v *verifier) passStats {
	st, _ := m.run(nil, v)
	return st
}

func (m *monitorInstance) tracedPass(t *tracer, v *verifier) (time.Duration, counts) {
	r := t.recorder()
	st, c := m.run(r, v)
	t.merge(r)
	return st.wall, c
}

// refuteInstance checks wide buggy-counter histories one at a time with
// core.CheckRA, the search fanned over every CPU.
type refuteInstance struct {
	spec          core.Spec
	opts          core.CheckOptions
	hs            []*core.History
	ref           []core.Verdict
	genTime       time.Duration
	referenceTime time.Duration
}

func (w *refuteInstance) setupTimes() (time.Duration, time.Duration) {
	return w.genTime, w.referenceTime
}

// refuteDeliveries is how many pre-heal deliveries each refute-wide history
// has. They pair disjoint writers, so each one removes the same share of the
// configuration space whichever writers it pairs: the search's size depends
// on k alone, not on the seed.
const refuteDeliveries = 2

func setupRefuteWide(seed int64, smoke bool) (instance, error) {
	n, kmin, kmax := 100, 10, 14
	if smoke {
		n, kmin, kmax = 6, 5, 7
	}
	w := &refuteInstance{spec: spec.Counter{}, opts: core.DefaultCheckOptions()}
	w.opts.Strategies = nil
	// Set-up takes about a millisecond and runs on one goroutine: on two,
	// setup_s hung on how fast the host woke the second one, and spread
	// several times wider from run to run.
	start := time.Now()
	w.hs = make([]*core.History, n)
	for i := range w.hs {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
		w.hs[i] = wideCounter(rng, kmin+i%(kmax-kmin+1), refuteDeliveries, true)
	}
	w.genTime = time.Since(start)
	start = time.Now()
	w.ref = make([]core.Verdict, n)
	for i, h := range w.hs {
		var err error
		if w.ref[i], err = counterOracle(h); err != nil {
			return nil, fmt.Errorf("history %d: %w", i, err)
		}
	}
	w.referenceTime = time.Since(start)
	return w, nil
}

// wideCounter builds a buggy counter's history: k writers on k replicas each
// issue one inc or dec, deliveries pre-heal pass an earlier writer's update
// to a later writer (disjoint pairs), and after the heal one read sees every
// update. The read returns the true sum, or — when invalid — the sum ±1, a
// value no order of the updates explains.
func wideCounter(rng *rand.Rand, k, deliveries int, invalid bool) *core.History {
	h := core.NewHistory()
	var sum int64
	for i := 1; i <= k; i++ {
		method := "inc"
		if rng.IntN(2) == 1 {
			method = "dec"
			sum--
		} else {
			sum++
		}
		h.MustAdd(&core.Label{ID: uint64(i), Method: method, Kind: core.KindUpdate, Origin: clock.ReplicaID(i - 1), GenSeq: uint64(i)})
	}
	perm := rng.Perm(k)
	for d := 0; d < deliveries && 2*d+1 < k; d++ {
		a, b := perm[2*d]+1, perm[2*d+1]+1
		h.MustAddVis(uint64(min(a, b)), uint64(max(a, b)))
	}
	ret := sum
	if invalid {
		ret += int64(2*rng.IntN(2) - 1)
	}
	read := h.MustAdd(&core.Label{ID: uint64(k + 1), Method: "read", Ret: ret, Kind: core.KindQuery, GenSeq: uint64(k + 1)})
	for i := 1; i <= k; i++ {
		h.MustAddVis(uint64(i), read.ID)
	}
	return h
}

func (w *refuteInstance) pass(v *verifier) passStats {
	var st passStats
	results := make([]core.Result, len(w.hs))
	start := time.Now()
	for i, h := range w.hs {
		t0 := time.Now()
		results[i] = core.CheckRA(h, w.spec, w.opts)
		st.calls = append(st.calls, time.Since(t0))
		st.decisions++
		v.verdict(key{workload: "refute-wide", hist: i, prefix: -1}, w.ref[i], results[i].Verdict)
	}
	st.wall = time.Since(start)
	for i, res := range results {
		if res.Verdict == core.VerdictValid {
			v.witness(key{workload: "refute-wide", hist: i, prefix: -1}, res.Rewritten, res.Linearization, w.spec)
		}
	}
	return st
}

func (w *refuteInstance) tracedPass(t *tracer, v *verifier) (time.Duration, counts) {
	var c counts
	r := t.recorder()
	outs := make([]outcome, len(w.hs))
	start := time.Now()
	for i, h := range w.hs {
		k := key{workload: "refute-wide", hist: i, prefix: -1}
		outs[i] = checkTraced(r, k, quarter(i, len(w.hs)), "Counter", "", h, w.spec, w.opts)
		c.add(outs[i])
		v.verdict(k, w.ref[i], outs[i].verdict)
	}
	wall := time.Since(start)
	t.merge(r)
	for i, o := range outs {
		if o.verdict == core.VerdictValid && o.searched {
			v.witness(key{workload: "refute-wide", hist: i, prefix: -1}, o.rewritten, o.witness, w.spec)
		}
	}
	return wall, c
}

package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"time"
)

// key names one decision, and the trace of its check:
// workload/group/history, plus /prefix for the monitor.
type key struct {
	workload string
	// group is the scenario or CRDT; empty when the workload has one group.
	group  string
	hist   int
	prefix int // negative for whole-history checks
}

func (k key) String() string {
	s := k.workload
	if k.group != "" {
		s += "/" + k.group
	}
	s += "/" + strconv.Itoa(k.hist)
	if k.prefix >= 0 {
		s += "/" + strconv.Itoa(k.prefix)
	}
	return s
}

// span is one timed call, recorded from outside the call. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int        `json:"span"`
	Parent int        `json:"parent"`
	Name   string     `json:"name"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
	Attrs  *spanAttrs `json:"attrs,omitempty"`
}

type spanAttrs struct {
	CRDT     string `json:"crdt,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Verdict  string `json:"verdict,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
}

// spanRecord is one line of the span JSONL file.
type spanRecord struct {
	Trace string `json:"trace"`
	span
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover (clipped to the span).
func selfTimes(spans []span, dst []int64) []int64 {
	dst = dst[:0]
	var iv [][2]int64
	for _, s := range spans {
		iv = iv[:0]
		for _, c := range spans {
			if c.Parent != s.ID {
				continue
			}
			if lo, hi := max(c.Start, s.Start), min(c.End, s.End); lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), int64(math.MinInt64)
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		dst = append(dst, s.End-s.Start-covered)
	}
	return dst
}

// layerStat totals the spans of one layer.
type layerStat struct {
	calls  int
	selfNs int64
	nodes  int64
	// qCalls/qNs cover the spans of traces in the first (0) and last (1)
	// quarter of their history, or of their batch.
	qCalls [2]int
	qNs    [2]int64
}

// layerAgg folds finished traces into totals: the root spans (one per check
// or prefix) and the self time of every layer below them.
type layerAgg struct {
	roots      []time.Duration
	rootNs     int64
	rootSelfNs int64
	layers     map[string]*layerStat
}

// quarterSlot maps a quarter (0–3) to its layerStat slot: 0 for the first,
// 1 for the last, -1 for the middle two.
func quarterSlot(quarter int) int {
	switch quarter {
	case 0:
		return 0
	case 3:
		return 1
	}
	return -1
}

func (a *layerAgg) fold(spans []span, self []int64, quarter int) {
	q := quarterSlot(quarter)
	for i, s := range spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			a.roots = append(a.roots, time.Duration(d))
			a.rootNs += d
			a.rootSelfNs += self[i]
			continue
		}
		if a.layers == nil {
			a.layers = map[string]*layerStat{}
		}
		st := a.layers[s.Name]
		if st == nil {
			st = &layerStat{}
			a.layers[s.Name] = st
		}
		st.calls++
		st.selfNs += self[i]
		if s.Attrs != nil {
			st.nodes += int64(s.Attrs.Nodes)
		}
		if q >= 0 {
			st.qCalls[q]++
			st.qNs[q] += self[i]
		}
	}
}

func (a *layerAgg) merge(b *layerAgg) {
	a.roots = append(a.roots, b.roots...)
	a.rootNs += b.rootNs
	a.rootSelfNs += b.rootSelfNs
	for name, s := range b.layers {
		if a.layers == nil {
			a.layers = map[string]*layerStat{}
		}
		t := a.layers[name]
		if t == nil {
			t = &layerStat{}
			a.layers[name] = t
		}
		t.calls += s.calls
		t.selfNs += s.selfNs
		t.nodes += s.nodes
		for q := range t.qCalls {
			t.qCalls[q] += s.qCalls[q]
			t.qNs[q] += s.qNs[q]
		}
	}
}

// tracer collects the traced passes of one run. Spans are recorded by the
// benchmark around each call into a layer, never inside the program; each
// finished trace is folded into per-layer totals. When a span file was asked
// for, the spans of the first traced pass stay in memory until flush writes
// them as JSONL.
type tracer struct {
	epoch time.Time
	path  string
	keep  bool
	agg   layerAgg
	kept  []spanRecord
}

func newTracer(path string) *tracer {
	return &tracer{epoch: time.Now(), path: path, keep: path != ""}
}

// recorder returns a span recorder.
func (t *tracer) recorder() *recorder {
	return &recorder{t: t, keep: t.keep}
}

// merge folds a recorder's totals and kept spans into the tracer.
func (t *tracer) merge(r *recorder) {
	t.agg.merge(&r.agg)
	t.kept = append(t.kept, r.kept...)
	r.agg, r.kept = layerAgg{}, nil
}

// flush writes the kept spans, if a file was asked for, and stops keeping.
func (t *tracer) flush() error {
	if !t.keep {
		return nil
	}
	t.keep = false
	kept := t.kept
	t.kept = nil
	f, err := os.Create(t.path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range kept {
		if err := enc.Encode(&kept[i]); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// recorder records the spans of one trace at a time, on one goroutine. A nil
// recorder records nothing, so one replay loop serves the untraced and the
// traced pass.
type recorder struct {
	t     *tracer
	keep  bool
	spans []span
	open  []int
	self  []int64
	agg   layerAgg
	kept  []spanRecord
}

func (r *recorder) now() int64 { return int64(time.Since(r.t.epoch)) }

// start opens a span as a child of the innermost open span (a root when none
// is open) and returns its index for end and set.
func (r *recorder) start(name string) int {
	if r == nil {
		return -1
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Name: name, Start: r.now()})
	r.open = append(r.open, i)
	return i
}

// end closes the innermost open span, which must be span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = r.now()
	r.open = r.open[:len(r.open)-1]
}

// set attaches attributes to span i.
func (r *recorder) set(i int, a spanAttrs) {
	if r == nil {
		return
	}
	r.spans[i].Attrs = &a
}

// finish folds the finished trace into the recorder's totals, keeps its
// spans when asked to, and starts the next trace.
func (r *recorder) finish(k key, quarter int) {
	if r == nil {
		return
	}
	r.self = selfTimes(r.spans, r.self)
	r.agg.fold(r.spans, r.self, quarter)
	if r.keep {
		id := k.String()
		for _, s := range r.spans {
			r.kept = append(r.kept, spanRecord{Trace: id, span: s})
		}
	}
	r.spans = r.spans[:0]
}

// quarter returns which quarter of n positions position i falls in.
func quarter(i, n int) int {
	if n <= 0 {
		return 0
	}
	return 4 * i / n
}

// counts are the work counts of one traced pass, read from the checker's
// results. Every workload runs the same inputs each pass, so most repeat
// exactly; README.md lists the ones parallel workers make vary.
type counts struct {
	checks                       int
	historyCalls, edgesAdded     int
	rewriteCalls, rewriteCloned  int
	strategyCalls, strategyHits  int
	runCalls, planReused         int
	nodes, pruned, memoHits      int
	leaves, steals               int
	refutations, refutationNodes int
	witnesses, witnessNodes      int
	interned                     int
	extendCalls, replayed        int
	searched, rebuilt            int
	// batchCalls is the number of CheckHistoryBatch calls an untraced pass
	// makes, and batchWorkers their pool width; both 0 outside the batch
	// workloads.
	batchCalls, batchWorkers int
}

// layerMetrics adds the per-layer metrics of the traced passes: span timings
// from agg, totalled over passes traced passes and reported per pass, and
// work counts from c, which are those of one pass. plainWall is the median
// wall time of the untraced passes, in seconds.
func layerMetrics(res *result, agg layerAgg, c counts, passes int, plainWall float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	stat := func(name string) layerStat {
		if s := agg.layers[name]; s != nil {
			return *s
		}
		return layerStat{}
	}
	perPass := func(ns int64) float64 { return float64(ns) / float64(passes) / 1e9 }
	busy := func(name string) {
		s := stat(name)
		res.add(name+".busy_s", perPass(s.selfNs), "s", s.calls)
	}
	// quarters reports a layer's mean self time per call over the first and
	// the last quarter of each history (of each batch, outside the monitor).
	quarters := func(name string) {
		s := stat(name)
		res.add(name+".us_q1", ratio(float64(s.qNs[0]), float64(s.qCalls[0]))/1e3, "us", s.qCalls[0])
		res.add(name+".us_q4", ratio(float64(s.qNs[1]), float64(s.qCalls[1]))/1e3, "us", s.qCalls[1])
	}
	count := func(name string, n int) { res.add(name, float64(n), "count", 1) }
	roots := append([]time.Duration(nil), agg.roots...)
	sortDurations(roots)

	res.add("trace.accounted_frac", ratio(float64(agg.rootNs-agg.rootSelfNs), float64(agg.rootNs)), "frac", len(roots))
	count("check.calls", c.checks)
	res.add("check.busy_s", perPass(agg.rootNs), "s", len(roots))
	res.add("check.p50_us", us(quantile(roots, 0.50)), "us", len(roots))
	res.add("check.p99_us", us(quantile(roots, 0.99)), "us", len(roots))

	// The batch pool's cost beyond the checks, per pass: the untraced pass's
	// wall time less the traced checks' time per pool worker. It holds the
	// pool's hand-off and ordered fold and the idle tail of each batch, less
	// what tracing adds to the checks.
	count("harness.batch.calls", c.batchCalls)
	batchSelf := 0.0
	if c.batchWorkers > 0 {
		batchSelf = plainWall - perPass(agg.rootNs)/float64(c.batchWorkers)
	}
	res.add("harness.batch.busy_s", batchSelf, "s", len(roots))

	count("core.history.calls", c.historyCalls)
	busy("core.history")
	count("core.history.edges_added", c.edgesAdded)
	quarters("core.history")

	count("core.rewrite.calls", c.rewriteCalls)
	busy("core.rewrite")
	res.add("core.rewrite.cloned_frac", ratio(float64(c.rewriteCloned), float64(c.rewriteCalls)), "frac", c.rewriteCalls)

	count("core.strategy.calls", c.strategyCalls)
	busy("core.strategy")
	res.add("core.strategy.hit_ratio", ratio(float64(c.strategyHits), float64(c.strategyCalls)), "ratio", c.strategyCalls)

	count("search.run.calls", c.runCalls)
	busy("search.run")
	res.add("search.plan_reuse_ratio", ratio(float64(c.planReused), float64(c.runCalls)), "ratio", c.runCalls)
	run := stat("search.run")
	res.add("search.ns_per_node", ratio(float64(run.selfNs), float64(run.nodes)), "ns", run.calls)
	count("search.nodes", c.nodes)
	count("search.pruned", c.pruned)
	count("search.memo_hits", c.memoHits)
	res.add("search.memo_hit_ratio", ratio(float64(c.memoHits), float64(c.nodes+c.memoHits)), "ratio", 1)
	count("search.leaves", c.leaves)
	count("search.steals", c.steals)
	res.add("search.nodes_per_refutation", ratio(float64(c.refutationNodes), float64(c.refutations)), "count", c.refutations)
	res.add("search.nodes_per_witness", ratio(float64(c.witnessNodes), float64(c.witnesses)), "count", c.witnesses)
	count("search.interned_states", c.interned)

	count("search.extend.calls", c.extendCalls)
	busy("search.extend")
	res.add("search.extend.replayed_ratio", ratio(float64(c.replayed), float64(c.extendCalls)), "ratio", c.extendCalls)
	count("search.extend.searched", c.searched)
	count("search.extend.rebuilt", c.rebuilt)
	quarters("search.extend")
}

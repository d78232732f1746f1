// Package harness drives the experiments of the reproduction: random
// workloads over the CRDT runtimes, the Figure 12 verification table, the
// worked figures of the paper (2, 3, 5, 8, 9, 10, 13, 14 and the Section 3.3
// client-reasoning exercise), and an exhaustive schedule explorer for small
// programs. The cmd/ binaries and the benchmark suite are thin wrappers over
// this package.
package harness

import (
	"context"
	"fmt"
	"math/rand"
	gruntime "runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/runtime"
	"ralin/internal/search"
)

// WorkloadConfig describes a random workload over one CRDT object.
type WorkloadConfig struct {
	// Seed seeds the workload generator.
	Seed int64
	// Ops is the number of operations issued.
	Ops int
	// Replicas is the number of replicas.
	Replicas int
	// Elems is the element alphabet for set- and register-like types.
	Elems []string
	// DeliveryProb is the per-step probability (in percent) of performing a
	// propagation step between operations.
	DeliveryProb int
	// FinalDelivery delivers everything at the end of the workload.
	FinalDelivery bool
}

// DefaultWorkload returns a small workload suitable for checker experiments:
// exhaustive linearization search stays cheap below roughly a dozen
// operations.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{
		Seed:          1,
		Ops:           8,
		Replicas:      3,
		Elems:         []string{"a", "b", "c"},
		DeliveryProb:  40,
		FinalDelivery: false,
	}
}

func (c *WorkloadConfig) fill() {
	if c.Ops <= 0 {
		c.Ops = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if len(c.Elems) == 0 {
		c.Elems = []string{"a", "b", "c"}
	}
	if c.DeliveryProb < 0 {
		c.DeliveryProb = 0
	}
	if c.DeliveryProb > 100 {
		c.DeliveryProb = 100
	}
}

// RunRandom executes one random workload against the descriptor's runtime
// (operation-based or state-based) and returns the resulting history.
func RunRandom(d crdt.Descriptor, cfg WorkloadConfig) (*core.History, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if d.OpType != nil {
		sys := d.NewOpSystem(runtime.Config{Replicas: cfg.Replicas})
		for i := 0; i < cfg.Ops; i++ {
			if _, err := d.RandomOp(rng, sys, cfg.Elems); err != nil {
				return nil, fmt.Errorf("%s workload: %w", d.Name, err)
			}
			if rng.Intn(100) < cfg.DeliveryProb {
				sys.DeliverRandom(rng)
			}
		}
		if cfg.FinalDelivery {
			if err := sys.DeliverAll(); err != nil {
				return nil, err
			}
		}
		return sys.History(), nil
	}
	sys := d.NewSBSystem(runtime.Config{Replicas: cfg.Replicas})
	for i := 0; i < cfg.Ops; i++ {
		if _, err := d.RandomOp(rng, sys, cfg.Elems); err != nil {
			return nil, fmt.Errorf("%s workload: %w", d.Name, err)
		}
		if rng.Intn(100) < cfg.DeliveryProb {
			sys.ExchangeRandom(rng)
		}
	}
	if cfg.FinalDelivery {
		if err := sys.DeliverAll(); err != nil {
			return nil, err
		}
	}
	return sys.History(), nil
}

// HistoryCheck summarises checking a batch of random histories of one CRDT.
type HistoryCheck struct {
	// CRDT is the data type name.
	CRDT string
	// Histories is the number of histories generated and checked.
	Histories int
	// Operations is the total number of operations across all histories.
	Operations int
	// Linearizable counts the histories with VerdictValid (a witness
	// RA-linearization was found).
	Linearizable int
	// Invalid counts the histories with VerdictInvalid (search space
	// exhausted, no witness) — definitive refutations, as opposed to the
	// Unknown trials below.
	Invalid int
	// Unknown counts the trials that reached no decision: truncated by a
	// deadline, a node or memory budget, cancellation, or a recovered panic —
	// including trials the batch never dispatched because it was cancelled
	// first. Unknown trials are never folded into Linearizable or Invalid.
	Unknown int
	// UnknownByReason breaks Unknown down by core.IncompleteReason string.
	UnknownByReason map[string]int
	// UnknownExample describes the first Unknown trial (by trial index).
	UnknownExample string
	// Degraded counts the trials whose check ran (partly) memo-less because
	// the session memory budget tripped; their verdicts are still sound.
	Degraded int
	// ByStrategy counts witnesses per constructive strategy; histories
	// resolved only by the exhaustive search are counted under "exhaustive".
	ByStrategy map[string]int
	// Tried is the total number of candidate sequences examined.
	Tried int
	// Stats sums the search work over every check of the batch with
	// core.Stats.Add. The legacy enumerator reports only Leaves. Under
	// MonitorGenerated every prefix check counts.
	core.Stats
	// BatchWorkers is the number of goroutines the batch pool checked trials
	// across.
	BatchWorkers int
	// InternedStates is the number of state IDs the searchers of the batch's
	// shared engine session hold (search.Session.InternedStates) — the state
	// vocabulary reused across histories instead of being rebuilt per check. Zero when sessions were
	// fresh per history or the exhaustive engine never ran.
	InternedStates int
	// PlanReuses counts the trials whose prepared history plan (the
	// preds/succs/affected/order index arrays) came from the session's plan
	// pool instead of being allocated. At most one trial per concurrently
	// running worker misses once the pool is warm.
	PlanReuses int
	// RewriteHits counts the trials whose γ-rewriting was served from the
	// session's record of the history — nonzero only when the same history
	// object is checked more than once through one session.
	RewriteHits int
	// FailureExample describes the first definitively non-linearizable
	// history (by trial index), if any.
	FailureExample string
	// Prefixes, Replayed, ExtendSearches and Rebuilds are the incremental
	// monitor's counters (MonitorGenerated): prefixes checked op-by-op,
	// verdicts produced by replaying the previous witness as a certificate,
	// fallback searches over the grown rewriting, and prefixes whose
	// extension preconditions failed (checked by a plain warm pass). All zero
	// for the batch entry points.
	Prefixes       int
	Replayed       int
	ExtendSearches int
	Rebuilds       int
}

// OK reports whether every history was RA-linearizable. Unknown trials count
// against OK — an undecided batch must not read as a clean one.
func (h HistoryCheck) OK() bool { return h.Linearizable == h.Histories }

// HistoryGenerator produces the histories a batch checks: trial i of the
// batch calls Generate(i). Implementations must be safe for concurrent calls
// with distinct trial indices (the batch pool fans trials across workers) and
// deterministic per trial index, so batch results do not depend on worker
// count. The returned seed is only reporting metadata (it labels the trial's
// FailureExample); the generator derives it from the trial index however it
// likes.
type HistoryGenerator interface {
	Generate(trial int) (h *core.History, seed int64, err error)
}

// GeneratorFunc adapts a function to the HistoryGenerator interface.
type GeneratorFunc func(trial int) (*core.History, int64, error)

// Generate calls the function.
func (f GeneratorFunc) Generate(trial int) (*core.History, int64, error) { return f(trial) }

// RandomGenerator is the uniform random workload generator behind
// CheckRandomHistories: trial i runs RunRandom with seed Cfg.Seed+i·7919.
type RandomGenerator struct {
	Desc crdt.Descriptor
	Cfg  WorkloadConfig
}

// Generate runs one random workload.
func (g RandomGenerator) Generate(trial int) (*core.History, int64, error) {
	cfg := g.Cfg
	cfg.fill()
	cfg.Seed = g.Cfg.Seed + int64(trial)*7919
	h, err := RunRandom(g.Desc, cfg)
	return h, cfg.Seed, err
}

// CheckGeneratedAgainst checks trials histories drawn from the generator
// against sp under the checker options opts — the descriptor's own
// specification and options, or a different specification such as the
// scenario library's naive-specification refutation probes. Trials are fanned
// across o.BatchWorkers workers sharing one engine session: the calling
// goroutine is worker 0, so w workers start w−1 extra goroutines, and workers
// claim trial indices in order from one shared counter. The aggregation is
// folded in trial order, so the result is deterministic regardless of worker
// count or completion order (given deterministic per-check options).
func CheckGeneratedAgainst(name string, sp core.Spec, opts core.CheckOptions, gen HistoryGenerator, trials int, o Options) (HistoryCheck, error) {
	return runBatch(name, sp, opts, trials, gen.Generate, o)
}

// CheckRandomHistories generates trials random histories of the CRDT and
// checks each for RA-linearizability with the descriptor's designated
// strategy (falling back to the other strategy and a bounded exhaustive
// search), under the default Options.
func CheckRandomHistories(d crdt.Descriptor, trials int, cfg WorkloadConfig) (HistoryCheck, error) {
	return CheckRandomHistoriesWith(d, trials, cfg, Options{})
}

// CheckRandomHistoriesWith is CheckRandomHistories with explicit options: a
// thin wrapper plugging RandomGenerator and the descriptor's checker options
// into CheckGeneratedAgainst. Trial i always uses seed cfg.Seed+i·7919.
func CheckRandomHistoriesWith(d crdt.Descriptor, trials int, cfg WorkloadConfig, o Options) (HistoryCheck, error) {
	cfg.fill()
	return CheckGeneratedAgainst(d.Name, d.Spec, d.CheckOptions(), RandomGenerator{Desc: d, Cfg: cfg}, trials, o)
}

// CheckHistoryBatch checks a batch of pre-built histories against one
// specification through the same shared-session worker pool as
// CheckRandomHistories. The explicit opts parameter is the per-trial checker
// configuration. The failure example of trial i is reported under "seed i"
// (the trial index).
func CheckHistoryBatch(name string, sp core.Spec, opts core.CheckOptions, hs []*core.History, o Options) (HistoryCheck, error) {
	gen := func(i int) (*core.History, int64, error) { return hs[i], int64(i), nil }
	return runBatch(name, sp, opts, len(hs), gen, o)
}

// checkTrials rejects a negative trial count, which would otherwise crash a
// batch or check nothing without a word.
func checkTrials(name string, trials int) error {
	if trials < 0 {
		return fmt.Errorf("%s: negative trial count %d", name, trials)
	}
	return nil
}

// runBatch is the batch pipeline: w workers generate and check trials over
// one shared engine session, and the per-trial results are folded in trial
// order so stats, ByStrategy and the first FailureExample do not depend on
// completion order. The calling goroutine is worker 0, so w workers start
// w−1 extra goroutines, and every worker runs the same loop: it claims the
// next trial index from one shared counter, so indices are claimed in order.
// The pipeline is fail-safe: a deadline or cancellation stops the claiming
// and interrupts running checks (unclaimed trials are reported Unknown, not
// dropped), and a panicking trial — a crashing spec, generator, or engine bug
// — is recovered into one Unknown outcome while every other trial's verdict
// is unaffected.
func runBatch(name string, sp core.Spec, opts core.CheckOptions, trials int, gen func(int) (*core.History, int64, error), o Options) (HistoryCheck, error) {
	if err := checkTrials(name, trials); err != nil {
		return HistoryCheck{}, err
	}
	workers := o.BatchWorkers
	if workers <= 0 {
		workers = gruntime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	opts = o.Tune(opts)
	// One expiry of the batch context stops the claiming and interrupts all
	// in-flight searches alike.
	ctx, cancel := o.withDeadline(&opts)
	defer cancel()
	b := &batch{
		ctx:     ctx,
		results: make([]trialResult, trials),
		gen:     gen,
		sp:      sp,
		opts:    opts,
	}
	if !o.FreshSessions {
		b.sess = search.NewSessionWithBudget(o.Budget)
	}
	b.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go b.work()
	}
	b.work()
	b.wg.Wait()
	results, sess := b.results, b.sess
	// Trials the dead context kept from being claimed are recorded as Unknown
	// with the context's reason — skipped, never silently dropped.
	if dispatched := int(min(b.next.Load(), int64(trials))); dispatched < trials {
		skipInc := core.ContextIncomplete(ctx)
		for i := dispatched; i < trials; i++ {
			tr := &results[i]
			if skipInc != nil {
				tr.incReason = string(skipInc.Reason)
				tr.incDetail = "trial not dispatched: " + skipInc.Detail
			} else {
				tr.incReason = string(core.ReasonCancelled)
				tr.incDetail = "trial not dispatched: batch stopped early"
			}
		}
	}

	out := newHistoryCheck(name, workers)
	for i := range results {
		if err := results[i].err; err != nil {
			out.InternedStates = sess.InternedStates()
			return out, err
		}
		out.add(i, &results[i])
	}
	out.InternedStates = sess.InternedStates()
	return out, nil
}

// batch is the state runBatch's workers share: the claim counter, the stop
// flag, the per-index result slots, and what every trial checks against.
type batch struct {
	// next is the next unclaimed trial index; a worker claims index i by
	// moving next from i to i+1, so indices are claimed in order. It may run
	// past the trial count by up to one per worker.
	next atomic.Int64
	// failed stops the claiming once any trial's generator errors, so a
	// failing batch does not burn through its remaining histories first.
	// Every claimed index still runs, and claims go out in order, so every
	// trial below the first erroring index has run and the fold still reports
	// the lowest-index error deterministically.
	failed  atomic.Bool
	wg      sync.WaitGroup
	ctx     context.Context
	results []trialResult
	gen     func(int) (*core.History, int64, error)
	sp      core.Spec
	opts    core.CheckOptions
	sess    *search.Session
}

// work is one worker's loop: before each claim it checks that no trial has
// failed and the batch context is alive, then claims and runs the next index
// until every index is claimed. Worker 0 is runBatch's own goroutine; every
// worker signals wg when it returns.
func (b *batch) work() {
	defer b.wg.Done()
	for !b.failed.Load() && (b.ctx == nil || b.ctx.Err() == nil) {
		i := int(b.next.Add(1) - 1)
		if i >= len(b.results) {
			return
		}
		b.run(i)
	}
}

// run generates and checks trial i into its result slot. Panic isolation: a
// crashing spec step, generator, or engine bug in one trial becomes that
// trial's Unknown outcome (stack captured in the detail) instead of killing
// the batch; every other trial's verdict is computed exactly as if this trial
// had merely timed out.
func (b *batch) run(i int) {
	tr := &b.results[i]
	defer func() {
		if r := recover(); r != nil {
			tr.verdict = core.VerdictUnknown
			tr.incReason = string(core.ReasonPanic)
			tr.incDetail = fmt.Sprintf("trial panicked: %v\n%s", r, debug.Stack())
		}
	}()
	h, seed, err := b.gen(i)
	tr.seed = seed
	if err != nil {
		tr.err = err
		b.failed.Store(true)
		return
	}
	tr.ops = h.Len()
	tr.record(core.CheckRAWith(h, b.sp, b.opts, b.sess))
}

// trialResult is one trial's outcome as the batch fold consumes it. It keeps
// only the scalar fields the fold reads: holding full core.Results would pin
// every generated history (Result.Rewritten) and witness until the batch
// finishes, where a sequential loop lets each trial's history become garbage
// immediately.
type trialResult struct {
	seed       int64
	ops        int
	err        error
	verdict    core.Verdict
	incReason  string
	incDetail  string
	strategy   *core.Strategy
	lastErr    error
	tried      int
	stats      core.Stats
	degraded   bool
	planReuse  bool
	rewriteHit bool
}

// record keeps the fields of a check's Result that the fold consumes.
func (tr *trialResult) record(res core.Result) {
	tr.verdict = res.Verdict
	if res.Incomplete != nil {
		tr.incReason = string(res.Incomplete.Reason)
		tr.incDetail = res.Incomplete.String()
	}
	tr.strategy = res.Strategy
	tr.lastErr = res.LastErr
	tr.tried = res.Tried
	tr.stats = res.Stats
	tr.degraded = res.MemDegraded
	tr.planReuse = res.PlanReused
	tr.rewriteHit = res.RewriteCached
}

// newHistoryCheck returns the empty summary the batch folds trials into.
func newHistoryCheck(name string, workers int) HistoryCheck {
	return HistoryCheck{
		CRDT:            name,
		ByStrategy:      map[string]int{},
		UnknownByReason: map[string]int{},
		BatchWorkers:    workers,
	}
}

// add folds trial i into the summary. Trials must be added in trial order so
// the first FailureExample and UnknownExample do not depend on completion
// order.
func (out *HistoryCheck) add(i int, tr *trialResult) {
	out.Histories++
	out.Operations += tr.ops
	out.Tried += tr.tried
	out.Stats.Add(tr.stats)
	if tr.planReuse {
		out.PlanReuses++
	}
	if tr.rewriteHit {
		out.RewriteHits++
	}
	if tr.degraded {
		out.Degraded++
	}
	switch tr.verdict {
	case core.VerdictValid:
		out.Linearizable++
		if tr.strategy != nil {
			out.ByStrategy[tr.strategy.String()]++
		} else {
			out.ByStrategy["exhaustive"]++
		}
	case core.VerdictInvalid:
		out.Invalid++
		if out.FailureExample == "" {
			out.FailureExample = fmt.Sprintf("seed %d: %v", tr.seed, tr.lastErr)
		}
	default:
		out.Unknown++
		out.UnknownByReason[tr.incReason]++
		if out.UnknownExample == "" {
			out.UnknownExample = fmt.Sprintf("trial %d (seed %d): %s", i, tr.seed, tr.incDetail)
		}
	}
}

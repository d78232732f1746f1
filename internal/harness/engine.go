package harness

import (
	"context"
	"fmt"
	"time"

	"ralin/internal/core"
	"ralin/internal/search"
)

// This package imports internal/search (workload.go uses its batch
// sessions), which registers the pruned engine with the core checker, so
// every experiment driven through this package (and through the cmd/ralin-*
// tools and benchmarks built on it) runs pruned by default.

// Options is the explicit checker/batch configuration threaded through every
// entry point of this package: the figure reproductions, the Figure 12 table,
// the random-workload batches and the generated-history batches. The zero
// value is the default configuration (pruned engine, GOMAXPROCS batch
// workers, one shared session per batch). It replaces the former
// package-level SetCheckEngine/SetBatchWorkers globals, so two callers with
// different configurations no longer race on hidden state.
type Options struct {
	// Engine selects the exhaustive-search engine for every check. The zero
	// value, EnginePruned, keeps each check's own engine; EngineLegacy forces
	// the legacy enumerator.
	Engine core.Engine
	// Guidance selects the pruned engine's branch ordering for every check.
	// The zero value, GuidanceRankOrder, keeps each check's own ordering;
	// GuidanceGuided opts into heuristic ordering — same verdicts, different
	// node counts. See core.Guidance.
	Guidance core.Guidance
	// Parallelism is ignored: each check's search runs on one goroutine, and
	// BatchWorkers is the only concurrency setting.
	//
	// Deprecated: kept only so the separate benchmark module, which still
	// sets it, keeps compiling; it will be deleted with that module's next
	// update.
	Parallelism int
	// BatchWorkers bounds the worker pool the batch entry points fan trials
	// across — the only concurrency setting. Zero uses GOMAXPROCS; one forces
	// the sequential per-trial loop.
	BatchWorkers int
	// FreshSessions disables the shared engine session inside batches,
	// giving every history fresh interner/memo/scratch state — the
	// pre-batch behaviour, kept for differential testing and debugging.
	FreshSessions bool
	// Context carries the caller's cancellation into every trial of a batch:
	// when it is cancelled (or its deadline expires), dispatch stops, running
	// checks are interrupted at their next node, and the skipped trials are
	// reported as Unknown — never silently dropped. Nil means no
	// cancellation.
	Context context.Context
	// Timeout, when positive, bounds the wall clock of the whole batch (a
	// deadline derived from Context, or from the background context when
	// Context is nil). Trials past the deadline report VerdictUnknown with
	// ReasonDeadline.
	Timeout time.Duration
	// Budget caps the memory of the batch's shared engine session; see
	// search.Budget for the graceful-degradation semantics. Ignored with
	// FreshSessions (fresh per-trial state is bounded by the trial itself).
	Budget search.Budget
	// Check overrides the descriptor-derived checker options for every
	// trial of the batch entry points that would otherwise derive them
	// (CheckRandomHistories, CheckGenerated). Entry points taking an
	// explicit opts parameter (CheckHistoryBatch, CheckGeneratedAgainst)
	// ignore it. Engine/Guidance tuning is still applied on top.
	Check *core.CheckOptions
}

// Tune applies the engine selection and branch-ordering guidance of the
// Options to checker options. opts.Guidance set to GuidanceGuided wins over
// o.Guidance.
func (o Options) Tune(opts core.CheckOptions) core.CheckOptions {
	if o.Engine != core.EnginePruned {
		opts.Engine = o.Engine
	}
	if opts.Guidance == core.GuidanceRankOrder {
		opts.Guidance = o.Guidance
	}
	return opts
}

// searchEffort renders the work a check's exhaustive phase performed in the
// units of the engine that ran it: complete candidates for the legacy
// enumerator, prefix nodes for the pruned engine (whose refutations reach no
// complete candidate at all). Session amortizations that served this check —
// a pooled history plan, a cached rewriting — are appended so tool output
// shows when the per-check setup cost was skipped.
func searchEffort(res core.Result) string {
	if res.Nodes > 0 {
		s := fmt.Sprintf("explored %d prefixes, %d pruned", res.Nodes, res.Pruned)
		if res.PlanReused {
			s += ", pooled plan"
		}
		if res.RewriteCached {
			s += ", cached rewrite"
		}
		if res.MemDegraded {
			s += ", degraded (mem budget)"
		}
		return s
	}
	return fmt.Sprintf("tried %d linearizations", res.Tried)
}

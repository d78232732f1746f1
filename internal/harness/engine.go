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
	// Parallelism is ignored: each check's search runs on one goroutine, and
	// BatchWorkers is the only concurrency setting.
	//
	// Deprecated: kept only so the separate benchmark module, which still
	// sets it, keeps compiling; it will be deleted with that module's next
	// update.
	Parallelism int
	// BatchWorkers is the number of workers the batch entry points fan
	// trials across — the only concurrency setting. Zero uses GOMAXPROCS.
	// The calling goroutine is worker 0, so w workers start w−1 extra
	// goroutines (and one worker runs the whole batch on the caller). Every
	// worker claims trial indices in order from one shared counter.
	BatchWorkers int
	// FreshSessions disables the shared engine session inside batches,
	// giving every history fresh state-ID/memo/scratch state — the
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
}

// Tune applies the engine selection of the Options to checker options.
func (o Options) Tune(opts core.CheckOptions) core.CheckOptions {
	if o.Engine != core.EnginePruned {
		opts.Engine = o.Engine
	}
	return opts
}

// session is the engine session a batch shares: nil, fresh state for every
// check, under FreshSessions.
func (o Options) session() *search.Session {
	if o.FreshSessions {
		return nil
	}
	return search.NewSessionWithBudget(o.Budget)
}

// withDeadline wires o's deadline and cancellation into opts: o.Timeout
// derives a deadline from o.Context (or the background context), and the
// resulting context is threaded into opts unless it pins its own, so one
// expiry interrupts every search the options reach. It returns that context
// and the cancel func the caller must defer.
func (o Options) withDeadline(opts *core.CheckOptions) (context.Context, context.CancelFunc) {
	ctx, cancel := o.Context, context.CancelFunc(func() {})
	if o.Timeout > 0 {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		ctx, cancel = context.WithTimeout(base, o.Timeout)
	}
	if opts.Context == nil {
		opts.Context = ctx
	}
	return ctx, cancel
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

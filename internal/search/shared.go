package search

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ralin/internal/core"
)

// compactor assigns dense check-local IDs to session-interner IDs, in first-
// contact order. The searcher's state-set bitsets and word-folded memo keys
// index by compact ID, so their width tracks the states this check actually
// reaches instead of the session's whole interned vocabulary. Assignment is a
// bijection for the duration of one check, so two sets get equal word
// sequences iff they held equal session IDs.
//
// Interner IDs are themselves dense from 0, so the forwarding table is a
// slice indexed by interner ID, not a map — compact is an array load on the
// hot path. Each entry is stamped with the check's epoch, making reset O(1):
// bumping the epoch invalidates every stale entry at once. Only the check's
// one searcher calls compact, so the table takes no lock.
type compactor struct {
	epoch uint32
	next  uint32
	// fwd[id] = epoch<<32 | cid, valid only when the stamp matches the
	// current epoch. Entries never shrink; stale stamps are dead weight until
	// the slice is reused.
	fwd []uint64
}

// compact returns the check-local ID of session-interner ID id, assigning the
// next dense ID on first contact.
func (c *compactor) compact(id uint32) uint32 {
	if int(id) < len(c.fwd) {
		if e := c.fwd[id]; uint32(e>>32) == c.epoch {
			return uint32(e)
		}
	}
	for int(id) >= len(c.fwd) {
		c.fwd = append(c.fwd, 0)
	}
	cid := c.next
	c.next++
	c.fwd[id] = uint64(c.epoch)<<32 | uint64(cid)
	return cid
}

// reset starts a fresh dense ID space for the next check by bumping the
// epoch; the forwarding slice is kept but every stale entry's stamp stops
// matching. Epoch 0 is reserved as "never stamped" (the zero value of a grown
// entry), so a wrap skips it after zeroing the slice.
func (c *compactor) reset() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.fwd)
		c.epoch = 1
	}
	c.next = 0
}

// shared is the per-check state the search reports through: counters, the
// node budget, the witness slot, the keyability and degradation flags, and the
// interruption record. One searcher runs each check, so everything it alone
// touches is plain. Two fields are also written by the context.AfterFunc
// callback Run registers for a cancellable context: stop, and the first
// interruption cause under mu.
type shared struct {
	// stop asks the searcher to unwind at its next node; interrupt sets it.
	stop atomic.Bool
	// truncated records that the node budget cut the search.
	truncated bool
	// unkeyable flips to true permanently once the searcher encounters a
	// state without a canonical key; memoization is then off for the rest of
	// the check.
	unkeyable bool
	// budget caps the nodes the searcher explores; 0 = unlimited.
	budget int64

	// memDegraded flips to true once the session memory budget trips
	// (interner at MaxInternedStates, or memo entries past MaxMemoBytes):
	// the search keeps running memo-less, the verdict stays sound, and the
	// outcome reports the degradation. Only set when a budget is configured.
	memDegraded bool
	// memoCount points at the session's live memo-entry counter and memoLimit
	// is the entry cap derived from Budget.MaxMemoBytes; both are nil/zero
	// without a configured memo budget, in which case the claim path pays
	// nothing.
	memoCount *atomic.Int64
	memoLimit int64
	// sess is notified on a memory-budget trip so it can evict its caches
	// once the check (and any concurrent siblings) finish; nil-safe.
	sess *Session
	// steps is the session's transition cache for this check's specification
	// (Session.stepCacheFor), nil when the check runs sessionless or the spec
	// is not cacheable; the searcher reads it through its own field.
	steps *stepCache
	// compact is the check-local dense ID space over the session interner's
	// IDs, cleared when the block is pooled.
	compact compactor

	nodes    int64
	leaves   int64
	pruned   int64
	memoHits int64

	witness []*core.Label
	lastErr error

	mu sync.Mutex
	// inc records the first interruption cause (deadline, cancellation,
	// recovered panic); node-budget truncation is derived in outcome() when
	// no explicit cause was recorded.
	inc *core.Incomplete
}

func newShared(budget int64) *shared {
	sh := &shared{budget: budget}
	// Epoch 0 means "never stamped" in the compactor's forwarding entries;
	// a live compactor always runs at epoch >= 1.
	sh.compact.epoch = 1
	return sh
}

// reset re-arms a pooled block for a new check with the given node budget.
// Reference-holding fields were already dropped by release; this clears the
// flags and counters the next check starts from.
func (sh *shared) reset(budget int64) {
	sh.stop.Store(false)
	sh.truncated = false
	sh.unkeyable = false
	sh.memDegraded = false
	sh.budget = budget
	sh.memoCount = nil
	sh.memoLimit = 0
	sh.nodes, sh.leaves, sh.pruned, sh.memoHits = 0, 0, 0, 0
	sh.compact.reset()
}

// release drops every reference the finished check left in the block —
// witness labels, the prune error, the interruption record, the session and
// step-cache pointers — so a pooled block pins nothing. The compact map and
// counters are cleared by the next reset. Run only pools a block no context
// callback can still reach.
func (sh *shared) release() {
	sh.witness = nil
	sh.lastErr = nil
	sh.inc = nil
	sh.sess = nil
	sh.steps = nil
	sh.memoCount = nil
}

// interrupt records the cause of an interruption and stops the search. The
// first recorded cause wins; later interrupts only reinforce the stop flag.
// Safe to call from the context callback's goroutine.
func (sh *shared) interrupt(inc *core.Incomplete) {
	sh.mu.Lock()
	if sh.inc == nil {
		sh.inc = inc
	}
	sh.mu.Unlock()
	sh.stop.Store(true)
}

// panicked converts a recovered searcher panic into an interruption carrying
// the panic message and captured stack.
func (sh *shared) panicked(r any, stack []byte) {
	sh.interrupt(&core.Incomplete{
		Reason: core.ReasonPanic,
		Detail: fmt.Sprintf("search panicked: %v", r),
		Stack:  string(stack),
	})
}

// tripMemBudget records that the session memory budget was hit. The search
// continues memo-less (graceful degradation, not an abort); the session is
// told so it evicts its caches when idle.
func (sh *shared) tripMemBudget() {
	if !sh.memDegraded {
		sh.memDegraded = true
		sh.sess.noteTrip()
	}
}

// outcome assembles the engine outcome once the searcher has flushed.
func (sh *shared) outcome() core.EngineOutcome {
	sh.mu.Lock()
	inc := sh.inc
	sh.mu.Unlock()
	out := core.EngineOutcome{
		OK:      sh.witness != nil,
		Witness: sh.witness,
		LastErr: sh.lastErr,
		Stats: core.Stats{
			Nodes:    int(sh.nodes),
			Pruned:   int(sh.pruned),
			MemoHits: int(sh.memoHits),
			Leaves:   int(sh.leaves),
		},
	}
	out.Complete = out.OK || (!sh.truncated && inc == nil)
	out.MemDegraded = sh.memDegraded
	if !out.Complete {
		if inc == nil {
			// No explicit interruption was recorded: the node budget cut the
			// search. Attribute it to the memory budget when the truncation
			// happened after degradation — the memo-less search is the reason
			// the node budget no longer sufficed.
			inc = &core.Incomplete{
				Reason: core.ReasonNodeBudget,
				Detail: fmt.Sprintf("node budget exhausted after %d nodes", sh.nodes),
			}
			if out.MemDegraded {
				inc = &core.Incomplete{
					Reason: core.ReasonMemBudget,
					Detail: fmt.Sprintf("memory budget tripped (search degraded to memo-less mode) and the node budget then truncated after %d nodes", sh.nodes),
				}
			}
		}
		out.Incomplete = inc
	}
	return out
}

package search

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ralin/internal/core"
)

// compactor assigns dense check-local IDs to session-interner IDs, in first-
// contact order. The searchers' state-set bitsets and word-folded memo keys
// index by compact ID, so their width tracks the states this check actually
// reaches instead of the session's whole interned vocabulary. Assignment is a
// bijection for the duration of one check, so any assignment order —
// including the racy first-contact order of a parallel search — preserves set
// equality exactly: two sets get equal word sequences iff they held equal
// session IDs.
//
// Interner IDs are themselves dense from 0, so the forwarding table is a
// slice indexed by interner ID, not a map — compact is an array load on the
// hot path. Each entry is stamped with the check's epoch, making reset O(1):
// bumping the epoch invalidates every stale entry at once.
type compactor struct {
	mu sync.RWMutex
	// seq marks a single-worker check: exactly one goroutine calls compact,
	// so the lock is skipped entirely. Run sets it per check.
	seq   bool
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
	if c.seq {
		if int(id) < len(c.fwd) {
			if e := c.fwd[id]; uint32(e>>32) == c.epoch {
				return uint32(e)
			}
		}
		return c.assign(id)
	}
	c.mu.RLock()
	if int(id) < len(c.fwd) {
		if e := c.fwd[id]; uint32(e>>32) == c.epoch {
			c.mu.RUnlock()
			return uint32(e)
		}
	}
	c.mu.RUnlock()
	c.mu.Lock()
	var cid uint32
	if int(id) < len(c.fwd) && uint32(c.fwd[id]>>32) == c.epoch {
		cid = uint32(c.fwd[id])
	} else {
		cid = c.assign(id)
	}
	c.mu.Unlock()
	return cid
}

// assign stamps the next dense ID for id. The caller must hold the write
// lock (or be the only worker, seq mode).
func (c *compactor) assign(id uint32) uint32 {
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
	c.mu.Lock()
	c.epoch++
	if c.epoch == 0 {
		clear(c.fwd)
		c.epoch = 1
	}
	c.next = 0
	c.seq = false
	c.mu.Unlock()
}

// shared is the coordination state of one search: counters, the node budget,
// the cancellation flag, the witness slot and the global keyability flag,
// shared by all workers.
type shared struct {
	stop      atomic.Bool
	truncated atomic.Bool
	// unkeyable flips to true permanently once any worker encounters a state
	// without a canonical key; memoization is then off for the whole search.
	unkeyable atomic.Bool
	charged   atomic.Int64
	budget    int64 // 0 = unlimited
	// shards is the stripe count of the shared memo table (0 when
	// memoization is disabled), reported in the outcome.
	shards int

	// memDegraded flips to true once the session memory budget trips
	// (interner at MaxInternedStates, or memo entries past MaxMemoBytes):
	// the search keeps running memo-less, the verdict stays sound, and the
	// outcome reports the degradation. Only set when a budget is configured.
	memDegraded atomic.Bool
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
	// is not cacheable; every worker reads it through its searcher.
	steps *stepCache
	// compact is the check-local dense ID space over the session interner's
	// IDs, shared by every worker and cleared when the block is pooled.
	compact compactor

	nodes    atomic.Int64
	leaves   atomic.Int64
	pruned   atomic.Int64
	memoHits atomic.Int64
	steals   atomic.Int64
	donated  atomic.Int64

	mu      sync.Mutex
	witness []*core.Label
	lastErr error
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

// reset re-arms a pooled coordination block for a new check with the given
// node budget. Reference-holding fields were already dropped by release; this
// clears the flags and counters the next check starts from.
func (sh *shared) reset(budget int64) {
	sh.stop.Store(false)
	sh.truncated.Store(false)
	sh.unkeyable.Store(false)
	sh.memDegraded.Store(false)
	sh.charged.Store(0)
	sh.budget = budget
	sh.shards = 0
	sh.memoCount = nil
	sh.memoLimit = 0
	sh.nodes.Store(0)
	sh.leaves.Store(0)
	sh.pruned.Store(0)
	sh.memoHits.Store(0)
	sh.steals.Store(0)
	sh.donated.Store(0)
	sh.compact.reset()
}

// release drops every reference the finished check left in the block —
// witness labels, the prune error, the interruption record, the session and
// step-cache pointers — so a pooled block pins nothing. The compact map and
// counters are cleared by the next reset.
func (sh *shared) release() {
	sh.mu.Lock()
	sh.witness = nil
	sh.lastErr = nil
	sh.inc = nil
	sh.mu.Unlock()
	sh.sess = nil
	sh.steps = nil
	sh.memoCount = nil
}

// wantErr reports whether the search still needs a representative prune error
// (no witness, none recorded yet); flush uses it to skip rendering prune
// reasons on witness-producing searches.
func (sh *shared) wantErr() bool {
	sh.mu.Lock()
	want := sh.witness == nil && sh.lastErr == nil
	sh.mu.Unlock()
	return want
}

// interrupt flags the search truncated for the given cause and cancels all
// workers. The first recorded cause wins; later interrupts only reinforce the
// stop flag.
func (sh *shared) interrupt(inc *core.Incomplete) {
	sh.mu.Lock()
	if sh.inc == nil {
		sh.inc = inc
	}
	sh.mu.Unlock()
	sh.truncated.Store(true)
	sh.stop.Store(true)
}

// panicked converts a recovered worker panic into an interruption carrying
// the panic message and captured stack.
func (sh *shared) panicked(r any, stack []byte) {
	sh.interrupt(&core.Incomplete{
		Reason: core.ReasonPanic,
		Detail: fmt.Sprintf("search worker panicked: %v", r),
		Stack:  string(stack),
	})
}

// tripMemBudget records that the session memory budget was hit. The search
// continues memo-less (graceful degradation, not an abort); the session is
// told so it evicts its caches when idle.
func (sh *shared) tripMemBudget() {
	if sh.memDegraded.CompareAndSwap(false, true) {
		sh.sess.noteTrip()
	}
}

// chargeNode consumes one unit of the node budget. It returns false — after
// flagging the search truncated and cancelling all workers — when the budget
// is exhausted.
func (sh *shared) chargeNode() bool {
	if sh.budget <= 0 {
		return true
	}
	if sh.charged.Add(1) > sh.budget {
		sh.truncated.Store(true)
		sh.stop.Store(true)
		return false
	}
	return true
}

// recordWitness stores the first witness found and cancels all workers.
func (sh *shared) recordWitness(seq []*core.Label) {
	sh.mu.Lock()
	if sh.witness == nil {
		sh.witness = seq
	}
	sh.mu.Unlock()
	sh.stop.Store(true)
}

// setErr keeps a representative prune error.
func (sh *shared) setErr(err error) {
	sh.mu.Lock()
	if sh.lastErr == nil {
		sh.lastErr = err
	}
	sh.mu.Unlock()
}

// outcome assembles the engine outcome once every worker has flushed.
func (sh *shared) outcome(workers int) core.EngineOutcome {
	sh.mu.Lock()
	witness, lastErr, inc := sh.witness, sh.lastErr, sh.inc
	sh.mu.Unlock()
	out := core.EngineOutcome{
		OK:      witness != nil,
		Witness: witness,
		LastErr: lastErr,
		Stats: core.Stats{
			Nodes:    int(sh.nodes.Load()),
			Pruned:   int(sh.pruned.Load()),
			MemoHits: int(sh.memoHits.Load()),
			Steals:   int(sh.steals.Load()),
			Leaves:   int(sh.leaves.Load()),
			Shards:   sh.shards,
			Workers:  workers,
		},
	}
	out.Complete = out.OK || !sh.truncated.Load()
	out.MemDegraded = sh.memDegraded.Load()
	if !out.Complete {
		if inc == nil {
			// No explicit interruption was recorded: the node budget cut the
			// search. Attribute it to the memory budget when the truncation
			// happened after degradation — the memo-less search is the reason
			// the node budget no longer sufficed.
			inc = &core.Incomplete{
				Reason: core.ReasonNodeBudget,
				Detail: fmt.Sprintf("node budget exhausted after %d nodes", sh.nodes.Load()),
			}
			if out.MemDegraded {
				inc = &core.Incomplete{
					Reason: core.ReasonMemBudget,
					Detail: fmt.Sprintf("memory budget tripped (search degraded to memo-less mode) and the node budget then truncated after %d nodes", sh.nodes.Load()),
				}
			}
		}
		out.Incomplete = inc
	}
	return out
}

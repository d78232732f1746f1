package search

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"ralin/internal/core"
)

// memoEntryBytes is the accounting weight of one memo-table entry: a key128
// plus its share of map bucket overhead. Budget.MaxMemoBytes is converted to
// an entry cap with it, so the budget check on the claim path stays a single
// integer comparison instead of a size calculation.
const memoEntryBytes = 64

// poolClasses is the number of size classes the searcher pool is split into.
// Class c holds searchers whose label capacity has bit length c (i.e.
// capacities in [2^(c-1), 2^c)), so a batch mixing small and large histories
// hands each check scratch within a factor of two of its size instead of
// ping-ponging one pool between shapes.
const poolClasses = 16

// sizeClass maps a label count to its pool class.
func sizeClass(n int) int {
	if c := bits.Len(uint(n)); c < poolClasses {
		return c
	}
	return poolClasses - 1
}

// Budget caps the memory-consuming structures of a Session. The zero value
// (and any zero field) means unlimited. Tripping a budget never aborts a
// check and never changes a verdict's polarity: the search degrades to
// memo-less mode (the DisableMemo path) for the remainder of the check, and
// once the session is idle it evicts its caches — interner, searcher pool
// (transition tables included), history records — so the next check starts
// exactly like one on
// a fresh session. The searcher pool needs no cap of its own: it never holds
// more searchers than the session once ran checks at the same time. No field
// caps the transition tables: each searcher bounds its own — it stops
// storing transitions at stepCacheCap and restarts once it holds contentCap
// contents — so their worst case grows with the number of pooled searchers
// (at most the peak of concurrent checks), and only eviction drops them.
type Budget struct {
	// MaxInternedStates caps the number of distinct abstract states the
	// session interner assigns IDs to.
	MaxInternedStates int
	// MaxMemoBytes caps the approximate bytes of live memoization entries
	// across the session's in-flight checks (each entry is accounted at
	// memoEntryBytes).
	MaxMemoBytes int64
}

// Session is the cross-check state of one batch of searches: the interner
// assigning dense IDs to canonical state keys, one record per checked
// history, and a pool of searchers — the one per-check object, carrying its
// plan, memo table, transition table and scratch (undo frames, state-set
// buffers).
// A single check pays for all of these as warm-up; a batch that threads one
// Session through every check (core.CheckRAWith / CheckOptions.Session) pays
// once and then only resets.
//
// Sharing is safe because the pieces have different lifetimes:
//
//   - the interner is append-only and concurrency-safe, and interned IDs stay
//     valid for the whole session — states recur across the histories of a
//     batch, so later checks mostly hit the read lock;
//   - searchers are per-check: a check takes one from the pool and returns it
//     when done. Their memo tables and plans are per-check too (memo keys and
//     plan indexes are per-history label indices, so reusing *contents*
//     across histories would alias configurations of different histories);
//     the pool recycles the maps, index slices and buffers themselves,
//     cleared-not-reallocated, so a warm check allocates none of them. A
//     searcher's transition table is keyed by interner state ID and label
//     content, which mean the same in every history of the session, so it
//     stays warm across the checks the searcher runs;
//   - a history's record is keyed by history identity and holds the
//     γ-rewriting every check of that history uses (served to core.CheckRA
//     through core.SessionRewriter) plus, once Extend has decided the
//     history, its certificate: a history re-checked through the session
//     clones and re-derives its rewriting once, not once per check, and an
//     extension grows that same rewriting in place.
//
// A Session may serve concurrent checks and checks of different
// specifications. A check only reaches states of its own specification, and
// a transition table only ever serves the spec it was filled under (a
// searcher running a check of another spec resets it), so cross-spec key
// collisions in the shared interner are harmless.
type Session struct {
	budget Budget
	// memoEntries counts live memo-table entries across the session's
	// in-flight checks; maintained only when a memo budget is configured.
	memoEntries atomic.Int64
	// tripped latches a memory-budget trip; endCheck evicts the session's
	// caches (and clears the latch) once no check is in flight.
	tripped atomic.Bool

	mu sync.Mutex
	// intern is guarded by mu only for the pointer swap during eviction;
	// the interner itself is concurrency-safe and checks pin it for their
	// whole run through beginCheck/endCheck.
	intern    *interner
	active    int
	evictions int
	// internedHigh is the high-water interned-state count across evictions,
	// so InternedStates keeps reporting the vocabulary actually built.
	internedHigh int
	// searchers is the searcher pool, in size classes (sizeClass over the
	// label count a searcher was last sized for).
	searchers [poolClasses][]*searcher
	// records holds one record per history checked through the session
	// (recordFor): its rewriting, and its certificate once Extend decided
	// it. Capped at recordCap and dropped on budget eviction.
	records map[*core.History]*record
}

// NewSession creates an empty, unbudgeted batch session. It implements
// core.EngineSession; pass it to core.CheckRAWith (or set
// CheckOptions.Session) on every check of a batch.
func NewSession() *Session {
	return NewSessionWithBudget(Budget{})
}

// NewSessionWithBudget creates a batch session whose interner and memo tables
// are capped by b. See Budget for the degradation semantics.
func NewSessionWithBudget(b Budget) *Session {
	return &Session{intern: newInternerLimited(b.MaxInternedStates), budget: b}
}

// Budget returns the session's configured memory budget (the zero Budget for
// an unbudgeted session).
func (s *Session) Budget() Budget {
	if s == nil {
		return Budget{}
	}
	return s.budget
}

// Evictions returns how many times a tripped memory budget made the idle
// session drop its caches and start a fresh generation.
func (s *Session) Evictions() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// noteTrip latches a memory-budget trip; nil-safe (sessionless searches have
// no budget, but the call sites stay unconditional).
func (s *Session) noteTrip() {
	if s != nil {
		s.tripped.Store(true)
	}
}

// beginCheck pins the session's current cache generation for the duration of
// one check: eviction only happens when no check is in flight, so interned
// IDs stay stable while any search references them.
func (s *Session) beginCheck() *interner {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active++
	return s.intern
}

// endCheck releases the pin taken by beginCheck and — when a budget tripped
// and this was the last in-flight check — evicts the session's caches so the
// next check starts from a fresh generation.
func (s *Session) endCheck() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	if s.active == 0 && s.tripped.Load() {
		s.evictLocked()
		s.tripped.Store(false)
	}
}

// evictLocked is the memory-budget fail-safe: drop every cache the session
// accumulated — interner, searcher pool (with the searchers' transition
// tables) and history records —
// so the memory is reclaimable and the next check is indistinguishable from
// one on a fresh session with the same budget. Called with s.mu held and no
// check in flight.
func (s *Session) evictLocked() {
	if n := s.intern.size(); n > s.internedHigh {
		s.internedHigh = n
	}
	s.intern = newInternerLimited(s.budget.MaxInternedStates)
	// The searchers' transition tables hold IDs of the evicted interner
	// generation; replaying them against the fresh generation would alias
	// unrelated states.
	s.searchers = [poolClasses][]*searcher{}
	// Records are rebuilt on the next check of each history: their clones
	// and certificates pin rewritten labels the fresh session should not.
	s.records = nil
	s.memoEntries.Store(0)
	s.evictions++
}

// EngineSessionKind identifies the owning engine (core.EngineSession).
func (s *Session) EngineSessionKind() string { return "pruned" }

// InternedStates returns the number of distinct abstract states interned so
// far — the state vocabulary the session's checks have shared instead of
// rebuilding per history. Across budget evictions it reports the high-water
// mark of any generation.
func (s *Session) InternedStates() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	in, high := s.intern, s.internedHigh
	s.mu.Unlock()
	if n := in.size(); n > high {
		return n
	}
	return high
}

// record is the session's state for one history h: the γ-rewriting every
// check of h through the session uses, the size of h it covers, and — once
// Extend has decided h — the specification and the certificate the next
// Extend replays. Plain checks and Extend share it, so the certificate is
// always a witness over the record's own rewriting.
type record struct {
	// token identifies the rewriting (core.RewritingIdentity).
	token any
	// rew is the γ-rewriting of h's first n labels and edges direct edges:
	// a clone on the cloning path, or an alias wrapper (rew.History == h) on
	// the identity fast path. Extend grows it in place and advances n and
	// edges with it.
	rew   *core.RewrittenHistory
	n     int
	edges int
	// spec is the specification Extend last decided h under; nil until
	// Extend has decided h (a record made by a plain check).
	spec core.Spec
	// maxGenSeq is the largest generator sequence number across h's labels,
	// maintained so the aliasing fast path's precondition (no GenSeq ties, as
	// implied by strictly increasing continuation) is checked per new label
	// instead of per history.
	maxGenSeq uint64
	// valid reports the last verdict was Valid; witness is then its
	// linearization in session-owned backing (never a carved arena
	// sub-slice — a long-lived certificate must not pin a searcher's witness
	// chunk), grown by amortized append as replays extend it; witRanks holds
	// each witness label's rank in rew.History (-1 if absent); and states is
	// the spec state set reachable after witness's update projection, from
	// which new updates step.
	valid    bool
	witness  []*core.Label
	witRanks []int
	states   []core.AbsState
	// stateBuf/stepBuf/justBuf/visBuf are the certificate replay's reusable
	// scratch, so a replay allocates only what the spec itself does.
	stateBuf []core.AbsState
	stepBuf  []core.AbsState
	justBuf  []*core.Label
	visBuf   []uint64
}

// covers reports whether rec is the rewriting of h, in its current size,
// under the rewriting identified by token.
func (rec *record) covers(h *core.History, token any) bool {
	return rec.n == h.Len() && rec.edges == h.DirectEdgeCount() && safeTokenEqual(rec.token, token)
}

// recordCap bounds the histories a session keeps a record for: each pins its
// history and its rewritten clone (and, once Extend decided it, a witness).
// Batch pipelines record every history they clone, so without a cap a long
// batch would keep all of them live. At the cap the whole map is dropped and
// refilled (generation eviction), the one rule for every record. Re-checks
// cycle a small working set and a monitor follows one live history at a
// time, which the record being inserted always survives, so a generation is
// enough; and unlike evicting a single entry, it depends on no map order.
const recordCap = 256

// SessionRewrite implements core.SessionRewriter: the rewriting of h's
// record when it covers h in its current size under g, derived and recorded
// otherwise. The second result reports a served rewriting. The nil
// rewriting's aliasing fast path is cheaper than a record probe, and a
// rewriting without an identity (core.RewritingIdentity) cannot be matched
// against a record, so both — like a nil session — derive γ(h) every time.
func (s *Session) SessionRewrite(h *core.History, g core.Rewriting) (*core.RewrittenHistory, bool, error) {
	token, ok := core.RewritingIdentity(g)
	if s == nil || g == nil || !ok {
		rew, err := core.RewriteHistory(h, g)
		return rew, false, err
	}
	rec, hit, err := s.recordFor(h, g, token)
	if err != nil {
		return nil, false, err
	}
	return rec.rew, hit, nil
}

// recordFor returns h's record when it covers h in its current size under
// the rewriting g identified by token, and otherwise derives γ(h) into a new
// record and stores it. Of two checks that derive the same history's record
// at once, the first to store it wins; the other checks its own rewriting.
// The second result reports a hit.
func (s *Session) recordFor(h *core.History, g core.Rewriting, token any) (*record, bool, error) {
	s.mu.Lock()
	rec := s.records[h]
	hit := rec != nil && rec.covers(h, token)
	s.mu.Unlock()
	if hit {
		return rec, true, nil
	}
	rew, err := core.RewriteHistory(h, g)
	if err != nil {
		return nil, false, err
	}
	rec = &record{token: token, rew: rew, n: h.Len(), edges: h.DirectEdgeCount()}
	s.mu.Lock()
	if cur := s.records[h]; cur == nil || !cur.covers(h, token) {
		s.putLocked(h, rec)
	}
	s.mu.Unlock()
	return rec, false, nil
}

// putLocked makes rec h's record, first dropping the whole map when it holds
// recordCap records of other histories. Called with s.mu held.
func (s *Session) putLocked(h *core.History, rec *record) {
	if _, ok := s.records[h]; !ok && len(s.records) >= recordCap {
		clear(s.records)
	}
	if s.records == nil {
		s.records = make(map[*core.History]*record)
	}
	s.records[h] = rec
}

// getSearcher takes a pooled searcher sized for n labels — the wanted size
// class first, then larger classes (their searchers fit with room to spare),
// then smaller ones (reuse with regrowth beats a cold allocation) — or
// allocates one when the session is nil or the pool is empty. The second
// result reports whether the searcher, and so its plan, was recycled
// (surfaced as EngineOutcome.PlanReused).
func (s *Session) getSearcher(n int) (*searcher, bool) {
	if s == nil {
		return &searcher{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	want := sizeClass(n)
	for i := range poolClasses {
		// want, want+1, ..., poolClasses-1, then want-1, ..., 0.
		c := want + i
		if c >= poolClasses {
			c = poolClasses - 1 - i
		}
		if k := len(s.searchers[c]); k > 0 {
			w := s.searchers[c][k-1]
			s.searchers[c][k-1] = nil
			s.searchers[c] = s.searchers[c][:k-1]
			return w, true
		}
	}
	return &searcher{}, false
}

// putSearcher unwinds the searcher, drops its references to the finished
// check, and pools it in its size class for the next check. The caller
// guarantees nothing else can still reach it: the search did not panic and
// no context callback started. No-op on a nil session.
func (s *Session) putSearcher(w *searcher) {
	if s == nil {
		return
	}
	w.release()
	c := sizeClass(cap(w.indegree))
	s.mu.Lock()
	s.searchers[c] = append(s.searchers[c], w)
	s.mu.Unlock()
}

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
// once the session is idle it evicts its caches — searcher pool (transition
// tables and their state IDs included), history records — so the next check
// starts exactly like one on a fresh session. The searcher pool needs no cap
// of its own: it never holds more searchers than the session once ran checks
// at the same time. Only MaxInternedStates caps the transition tables' state
// IDs; for the rest each searcher bounds its own table — it stops storing
// transitions at stepCacheCap and restarts its contents once it holds
// contentCap of them — so their worst case grows with the number of pooled
// searchers (at most the peak of concurrent checks), and only eviction drops
// them.
type Budget struct {
	// MaxInternedStates caps the state IDs the session's searchers hold
	// together: each searcher's transition table numbers the states it
	// reaches, and a state counts once per searcher that reached it. At one
	// worker that is the number of distinct states; concurrent searchers
	// reaching the same state count it twice, so the cap trips no later.
	MaxInternedStates int
	// MaxMemoBytes caps the approximate bytes of live memoization entries
	// across the session's in-flight checks (each entry is accounted at
	// memoEntryBytes).
	MaxMemoBytes int64
}

// Session is the cross-check state of one batch of searches: one record per
// checked history, and a pool of searchers — the one per-check object,
// carrying its plan, memo table, transition table (with its state IDs) and
// scratch (undo frames, state-set buffers).
// A single check pays for all of these as warm-up; a batch that threads one
// Session through every check (core.CheckRAWith / CheckOptions.Session) pays
// once and then only resets.
//
// Sharing is safe because the pieces have different lifetimes:
//
//   - searchers are per-check: a check takes one from the pool and returns it
//     when done. Their memo tables and plans are per-check too (memo keys and
//     plan indexes are per-history label indices, so reusing *contents*
//     across histories would alias configurations of different histories);
//     the pool recycles the maps, index slices and buffers themselves,
//     cleared-not-reallocated, so a warm check allocates none of them. A
//     searcher's transition table numbers states by canonical key and
//     labels by content, which mean the same in every history of the
//     session, so it — state IDs and transitions alike — stays warm across
//     the checks the searcher runs, and only that searcher reads it;
//   - a history's record is keyed by history identity and holds the
//     γ-rewriting every check of that history uses (served to core.CheckRA
//     through SessionRewrite) plus, once Extend has decided the
//     history, its certificate: a history re-checked through the session
//     clones and re-derives its rewriting once, not once per check, and an
//     extension grows that same rewriting in place.
//
// A Session may serve concurrent checks and checks of different
// specifications. A check only reaches states of its own specification, and
// a transition table only ever serves the spec it was filled under (a
// searcher running a check of another spec resets it), so cross-spec key
// collisions among a searcher's state IDs are harmless.
type Session struct {
	budget Budget
	// memoEntries counts live memo-table entries across the session's
	// in-flight checks; maintained only when a memo budget is configured.
	memoEntries atomic.Int64
	// interned counts the state IDs the session's searchers assigned
	// (admitState) since the last eviction, against
	// Budget.MaxInternedStates. A searcher dropped instead of pooled (its
	// search panicked, or its context callback ran) stays counted until the
	// next eviction.
	interned atomic.Int64
	// tripped latches a memory-budget trip; endCheck evicts the session's
	// caches (and clears the latch) once no check is in flight.
	tripped atomic.Bool

	mu        sync.Mutex
	active    int
	evictions int
	// internedHigh is the high-water interned count across evictions, so
	// InternedStates keeps reporting the vocabulary actually built.
	internedHigh int64
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

// NewSessionWithBudget creates a batch session whose state IDs and memo
// tables are capped by b. See Budget for the degradation semantics.
func NewSessionWithBudget(b Budget) *Session {
	return &Session{budget: b}
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

// admitState counts one new state ID against Budget.MaxInternedStates; at
// the cap it counts nothing and returns false. Nil-safe: a sessionless check
// has no cap.
func (s *Session) admitState() bool {
	if s == nil {
		return true
	}
	limit := int64(s.budget.MaxInternedStates)
	if limit <= 0 {
		s.interned.Add(1)
		return true
	}
	for {
		n := s.interned.Load()
		if n >= limit {
			return false
		}
		if s.interned.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// beginCheck pins the session's current cache generation for the duration of
// one check: eviction only happens when no check is in flight, so no search
// loses its searcher's count or its history's record mid-check.
func (s *Session) beginCheck() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active++
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
// accumulated — searcher pool (with the searchers' transition tables and
// state IDs) and history records — so the memory is reclaimable and the next
// check is indistinguishable from one on a fresh session with the same
// budget. Called with s.mu held and no check in flight.
func (s *Session) evictLocked() {
	s.internedHigh = max(s.internedHigh, s.interned.Swap(0))
	s.searchers = [poolClasses][]*searcher{}
	// Records are rebuilt on the next check of each history: their clones
	// and certificates pin rewritten labels the fresh session should not.
	s.records = nil
	s.memoEntries.Store(0)
	s.evictions++
}

// InternedStates returns the number of state IDs the session's searchers
// hold — the state vocabulary their checks reuse instead of rebuilding per
// history, summed over the searchers (one at one worker). Across budget
// evictions it reports the high-water mark of any generation.
func (s *Session) InternedStates() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(max(s.internedHigh, s.interned.Load()))
}

// record is the session's state for one history h: the γ-rewriting every
// check of h through the session uses, the size of h it covers, and — once
// Extend has decided h — the specification and the certificate the next
// Extend replays. Plain checks and Extend share it, so the certificate is
// always a witness over the record's own rewriting. An aliased rewriting
// grows with h itself: a nil rewriting aliases every history without
// query-updates, so the record keeps nothing about h's labels beyond the
// size it covers.
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
	// valid reports the last verdict was Valid; witness is then its
	// linearization in session-owned backing (never a carved arena
	// sub-slice — a long-lived certificate must not pin a searcher's witness
	// chunk), grown by amortized append as replays extend it; witRanks holds
	// each witness label's rank in rew.History (-1 if absent); and state is
	// the spec state at the end of one run of witness's update projection
	// (core.Fold), owned by the record and stepped in place by new updates.
	valid    bool
	witness  []*core.Label
	witRanks []int
	state    core.AbsState
	// stepBuf/justBuf/visBuf are the certificate replay's reusable scratch,
	// so a replay allocates only what the spec itself does.
	stepBuf []core.AbsState
	justBuf []*core.Label
	visBuf  []uint64
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

// SessionRewrite implements core.EngineSession: the rewriting of h's
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

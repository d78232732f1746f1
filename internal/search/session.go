package search

import (
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"

	"ralin/internal/core"
)

// memoEntryBytes is the accounting weight of one memo-table entry: a key128
// plus its share of map bucket overhead. Budget.MaxMemoBytes is converted to
// an entry cap with it, so the budget check on the claim path stays a single
// integer comparison instead of a size calculation.
const memoEntryBytes = 64

// poolClasses is the number of size classes the plan and searcher pools are
// split into. Class c holds entries whose label capacity has bit length c
// (i.e. capacities in [2^(c-1), 2^c)), so a batch mixing small and large
// histories hands each check scratch within a factor of two of its size
// instead of ping-ponging one pool between shapes.
const poolClasses = 16

// sizeClass maps a label count to its pool class.
func sizeClass(n int) int {
	if c := bits.Len(uint(n)); c < poolClasses {
		return c
	}
	return poolClasses - 1
}

// stepCacheCap bounds the entries of one per-spec transition cache: a
// runaway batch of ever-new histories stops filling the cache past the cap
// (lookups continue; new transitions are just recomputed).
const stepCacheCap = 1 << 18

// stepKey identifies one cached transition: the source state's session-
// interner ID and the label stepped over. The label is keyed by pointer —
// re-checks of one history through a session see the same label pointers
// (the session's rewrite cache returns the cached rewriting), which is
// exactly the warm path the cache exists for; fresh histories miss and fill.
type stepKey struct {
	state uint32
	label *core.Label
}

// stepEntry is one cached transition result: the successor states in raw
// emission order with their interner IDs, duplicates included, so a cache
// replay feeds the set-insert path the exact sequence the live spec call
// would.
type stepEntry struct {
	states []core.AbsState
	ids    []uint32
}

// stepCache memoizes a specification's transition function across the checks
// of a session: (source-state ID, label) → interned successors. It also
// caches the spec's initial state and its ID (searcher.cachedInit), the last
// per-check allocation of a warm re-check. Entries are only stored when every
// successor interned, so replaying an entry never needs a StateKey rendering
// or an interner probe. Dropped whole on budget eviction — its IDs belong to
// the evicted interner generation.
type stepCache struct {
	mu        sync.RWMutex
	initState core.AbsState
	initID    uint32
	entries   map[stepKey]stepEntry
}

// get returns the cached transition for (id, l), if present.
func (c *stepCache) get(id uint32, l *core.Label) (stepEntry, bool) {
	k := stepKey{state: id, label: l}
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	return e, ok
}

// put stores one transition result, copying both slices (callers pass
// scratch). First writer wins; at the cap the cache stops growing. The copies
// are built before the write lock is taken — and skipped entirely when a
// read-locked probe already sees the cache full or the entry present — so
// concurrent checks filling the cache contend only on the map insert, not on
// the allocation and copy of every entry.
func (c *stepCache) put(id uint32, l *core.Label, states []core.AbsState, ids []uint32) {
	k := stepKey{state: id, label: l}
	c.mu.RLock()
	full := len(c.entries) >= stepCacheCap
	_, dup := c.entries[k]
	c.mu.RUnlock()
	if full || dup {
		return
	}
	e := stepEntry{
		states: append([]core.AbsState(nil), states...),
		ids:    append([]uint32(nil), ids...),
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[stepKey]stepEntry)
	}
	if _, dup := c.entries[k]; !dup && len(c.entries) < stepCacheCap {
		c.entries[k] = e
	}
	c.mu.Unlock()
}

// specStep pairs a specification with its transition cache; the session keeps
// one per distinct (comparable) spec value, found by linear scan — batches
// use a handful of specs at most.
type specStep struct {
	spec  core.Spec
	cache *stepCache
}

// Budget caps the memory-consuming structures of a Session. The zero value
// (and any zero field) means unlimited. Tripping a budget never aborts a
// check and never changes a verdict's polarity: the search degrades to
// memo-less mode (the DisableMemo path) for the remainder of the check, and
// once the session is idle it evicts its caches — interner, memo arena,
// plan/searcher pools, rewrite cache, guidance scores — so the next check
// starts exactly like one on a fresh session.
type Budget struct {
	// MaxInternedStates caps the number of distinct abstract states the
	// session interner assigns IDs to.
	MaxInternedStates int
	// MaxMemoBytes caps the approximate bytes of live memoization entries
	// across the session's in-flight checks (each entry is accounted at
	// memoEntryBytes).
	MaxMemoBytes int64
	// MaxPlanPoolEntries caps the prepared-plan pool (and, with it, the
	// searcher scratch pool) so an adversarial batch of many distinct
	// history shapes cannot grow the pools without bound.
	MaxPlanPoolEntries int
}

// Session is the cross-check state of one batch of searches: the interner
// assigning dense IDs to canonical state keys, an arena of memo tables, a
// pool of prepared history plans, a rewrite cache, and a pool of searcher
// scratch (undo frames, state-set buffers, candidate slices). A single check
// pays for all of these as warm-up; a batch that threads one Session through
// every check
// (core.CheckRAWith / CheckOptions.Session) pays once and then only resets.
//
// Sharing is safe because the pieces have different lifetimes:
//
//   - the interner is append-only and concurrency-safe, and interned IDs stay
//     valid for the whole session — states recur across the histories of a
//     batch, so later checks mostly hit the read lock;
//   - memo tables are per-check (their keys mix per-history label indices, so
//     reusing *contents* across histories would alias configurations of
//     different histories); the arena recycles the tables themselves, cleared
//     with their buckets kept, so a check allocates no memo maps after the
//     arena warms up;
//   - history plans (the preds/succs/affected/order index arrays prepare()
//     derives) are per-check; the pool recycles the plan structs with their
//     index slices cleared-not-reallocated, so a check's setup stops paying
//     the per-history index allocations once the pool warms up;
//   - the rewrite cache is keyed by history identity and survives the whole
//     session: a history re-checked through the session clones and
//     re-derives its γ-rewriting once, not once per check (consulted by
//     core.CheckRA through the core.RewriteCacher interface);
//   - searchers are per-check; the pool recycles their backing
//     arrays and buffer pools, re-initialized for each history's label count.
//
// A Session may serve concurrent checks and checks of different
// specifications. Interner IDs are only ever compared within one check, and a
// check only reaches states of its own specification, so cross-spec key
// collisions in the shared interner are harmless.
type Session struct {
	rewrites core.RewriteCache
	budget   Budget
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
	memos        []*memoTable
	// searchers and plans are pooled in size classes (sizeClass over the label
	// count they were last sized for); searcherCount/planCount track the
	// totals across classes for the MaxPlanPoolEntries budget.
	searchers     [poolClasses][]*searcher
	plans         [poolClasses][]*prepared
	searcherCount int
	planCount     int
	// shareds pools the per-check coordination blocks (counters, compactor,
	// stop flags) released by Run.
	shareds []*shared
	// steps holds one transition cache per distinct comparable specification
	// checked through the session (stepCacheFor).
	steps []specStep
	// seen tracks the (rewritten) history pointers checked through the
	// session, so Run attaches the transition cache only to re-checks: a
	// first-contact history would fill the cache with entries keyed by its
	// label pointers — copies that can never be hit again unless that very
	// history object returns. Capped at seenHistoryCap pointers; like the
	// rewrite cache, the pins are dropped on budget eviction.
	seen map[*core.History]struct{}
	// exts tracks per-history incremental-extension state (Session.Extend):
	// the length, rewriting and prepared plan of each history's last verdict,
	// plus the witness certificate when that verdict was Valid. Entries are
	// capped at extensionCap and dropped wholesale on budget eviction — their
	// plans index the evicted generation's pooled shapes and their witnesses
	// pin rewritten labels.
	exts map[*core.History]*extension
	// guidance is the guided-mode success-score table (core.GuidanceGuided):
	// decayed per-label-class counters credited from the witnesses of the
	// session's guided checks. It lives beside the plan pool and is dropped
	// with the other caches on budget eviction; rank-order checks never touch
	// it, and it is allocated lazily on the first guided check so rank-order
	// sessions never pay for it. The table is internally synchronized —
	// checks read and record through the pointer pinned at beginCheck time.
	guidance *scoreTable
}

// NewSession creates an empty, unbudgeted batch session. It implements
// core.EngineSession; pass it to core.CheckRAWith (or set
// CheckOptions.Session) on every check of a batch.
func NewSession() *Session {
	return NewSessionWithBudget(Budget{})
}

// NewSessionWithBudget creates a batch session whose interner, memo arena and
// plan pool are capped by b. See Budget for the degradation semantics.
func NewSessionWithBudget(b Budget) *Session {
	return &Session{intern: newInternerLimited(b.MaxInternedStates), budget: b}
}

// guideScores returns the session's guided-mode success-score table,
// allocating it on first use; nil on a nil session (sessionless guided checks
// run with zero success scores). Like the interner, the pointer is stable for
// the duration of any in-flight check because eviction only runs when the
// session is idle.
func (s *Session) guideScores() *scoreTable {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.guidance == nil {
		s.guidance = newScoreTable()
	}
	return s.guidance
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
// accumulated — interner, pooled memo tables, plans and searcher scratch, the
// rewrite cache and the guidance score table — so the memory is reclaimable
// and the next check is
// indistinguishable from one on a fresh session with the same budget. Called
// with s.mu held and no check in flight.
func (s *Session) evictLocked() {
	if n := s.intern.size(); n > s.internedHigh {
		s.internedHigh = n
	}
	s.intern = newInternerLimited(s.budget.MaxInternedStates)
	s.memos = nil
	for c := range s.plans {
		s.plans[c] = nil
		s.searchers[c] = nil
	}
	s.planCount, s.searcherCount = 0, 0
	s.shareds = nil
	// The step caches hold IDs of the evicted interner generation; replaying
	// them against the fresh generation would alias unrelated states.
	s.steps = nil
	s.seen = nil
	// Extension state is rebuilt on the next Extend of each history: the
	// cached plans belong to the evicted pool generation and the witness
	// certificates pin rewritten labels the fresh session should not.
	s.exts = nil
	s.memoEntries.Store(0)
	s.rewrites.Clear()
	s.guidance = nil
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

// RewriteCache exposes the session's γ-rewriting cache; it implements
// core.RewriteCacher, which core.CheckRA consults so re-checked histories
// clone their rewriting once per session instead of once per check. Returns
// nil on a nil session (no caching).
func (s *Session) RewriteCache() *core.RewriteCache {
	if s == nil {
		return nil
	}
	return &s.rewrites
}

// getPlan takes a recycled history plan sized for n labels — its index slices
// are cleared-not-reallocated by the next build — or a fresh one when the
// session is nil or no suitable class has an entry. The plan's own size class
// is tried first, then larger classes (their entries fit with room to spare);
// smaller classes would only re-grow. The second result reports whether the
// plan was recycled (surfaced as Result.PlanReused).
func (s *Session) getPlan(n int) (*prepared, bool) {
	if s == nil {
		return &prepared{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := takeClassed(s.plans[:], sizeClass(n), &s.planCount); p != nil {
		return p, true
	}
	return &prepared{}, false
}

// takeClassed pops an entry from a size-classed pool: the wanted class first,
// then larger classes (their entries fit with room to spare), then smaller
// ones (reuse with regrowth beats a cold allocation). count is the pool's
// cross-class total. Returns the zero T when every class is empty.
func takeClassed[T comparable](classes [][]T, want int, count *int) T {
	var zero T
	take := func(c int) (T, bool) {
		if k := len(classes[c]); k > 0 {
			e := classes[c][k-1]
			classes[c][k-1] = zero
			classes[c] = classes[c][:k-1]
			*count--
			return e, true
		}
		return zero, false
	}
	for c := want; c < poolClasses; c++ {
		if e, ok := take(c); ok {
			return e
		}
	}
	for c := want - 1; c >= 0; c-- {
		if e, ok := take(c); ok {
			return e
		}
	}
	return zero
}

// putPlan drops the plan's label references (so a pooled plan pins nothing of
// the finished check's history) and returns it to its size class — unless the
// budget caps the pool and it is full, in which case the plan is dropped for
// the collector (cold-plan eviction). No-op on a nil session.
func (s *Session) putPlan(p *prepared) {
	if s == nil || p == nil {
		return
	}
	p.release()
	s.mu.Lock()
	if max := s.budget.MaxPlanPoolEntries; max > 0 && s.planCount >= max {
		s.mu.Unlock()
		return
	}
	c := sizeClass(cap(p.order))
	s.plans[c] = append(s.plans[c], p)
	s.planCount++
	s.mu.Unlock()
}

// seenHistoryCap bounds the re-check tracking set: past it, first contacts
// are no longer recorded (their later re-checks just lose transition
// caching), so an unbounded stream of distinct histories cannot grow the set
// — or pin its histories — without limit.
const seenHistoryCap = 1 << 16

// recheck reports whether h was already checked through this session, and
// records it for the next check if not. Run gates the transition cache on it:
// only a history seen before is worth filling the cache for, because the
// cache keys transitions by label pointer and distinct histories never share
// labels. Nil-safe (sessionless checks are never re-checks).
func (s *Session) recheck(h *core.History) bool {
	if s == nil || h == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[h]; ok {
		return true
	}
	if s.seen == nil {
		s.seen = make(map[*core.History]struct{})
	}
	if len(s.seen) < seenHistoryCap {
		s.seen[h] = struct{}{}
	}
	return false
}

// stepCacheFor returns the session's transition cache for spec, creating it
// on first contact. Only comparable spec values are cacheable (the cache is
// found by interface equality); a non-comparable spec — or a nil session —
// gets nil, and the search falls back to live stepping.
func (s *Session) stepCacheFor(spec core.Spec) *stepCache {
	if s == nil || spec == nil {
		return nil
	}
	if t := reflect.TypeOf(spec); t == nil || !t.Comparable() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.steps {
		if e.spec == spec {
			return e.cache
		}
	}
	c := &stepCache{}
	s.steps = append(s.steps, specStep{spec: spec, cache: c})
	return c
}

// getShared takes a pooled per-check coordination block re-armed with the
// given node budget, or a fresh one when the session is nil or the pool is
// empty.
func (s *Session) getShared(budget int64) *shared {
	if s == nil {
		return newShared(budget)
	}
	s.mu.Lock()
	var sh *shared
	if n := len(s.shareds); n > 0 {
		sh = s.shareds[n-1]
		s.shareds[n-1] = nil
		s.shareds = s.shareds[:n-1]
	}
	s.mu.Unlock()
	if sh == nil {
		return newShared(budget)
	}
	sh.reset(budget)
	return sh
}

// putShared releases the block's references into the finished check and pools
// it. Run only calls this when no context watcher goroutine can still touch
// the block. No-op on a nil session.
func (s *Session) putShared(sh *shared) {
	if s == nil || sh == nil {
		return
	}
	sh.release()
	s.mu.Lock()
	s.shareds = append(s.shareds, sh)
	s.mu.Unlock()
}

// getMemo takes a cleared memo table from the arena (allocating only when the
// arena is empty). When the session carries a memo budget, the table is wired
// to the session's live-entry counter so claims are accounted. Safe on a nil
// session, which always allocates.
func (s *Session) getMemo() *memoTable {
	if s == nil {
		return newMemoTable()
	}
	s.mu.Lock()
	var m *memoTable
	if n := len(s.memos); n > 0 {
		m = s.memos[n-1]
		s.memos[n-1] = nil
		s.memos = s.memos[:n-1]
	}
	s.mu.Unlock()
	if m == nil {
		m = newMemoTable()
	}
	if s.budget.MaxMemoBytes > 0 {
		m.live = &s.memoEntries
	}
	return m
}

// putMemo clears the table (keeping its maps' buckets) and returns it
// to the arena. No-op on a nil session.
func (s *Session) putMemo(m *memoTable) {
	if s == nil || m == nil {
		return
	}
	m.reset()
	s.mu.Lock()
	s.memos = append(s.memos, m)
	s.mu.Unlock()
}

// getSearcher takes a recycled searcher sized for n labels (its own size
// class first, then larger), or returns nil (which newSearcher treats as
// "allocate fresh") when the session is nil or no suitable class has one.
func (s *Session) getSearcher(n int) *searcher {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return takeClassed(s.searchers[:], sizeClass(n), &s.searcherCount)
}

// putSearcher unwinds the searcher, drops its references to the finished
// check's history and specification, and pools its backing arrays in their
// size class for the next check. No-op on a nil session.
func (s *Session) putSearcher(w *searcher) {
	if s == nil || w == nil {
		return
	}
	w.release()
	s.mu.Lock()
	// The searcher pool rides on the plan-pool budget: searcher scratch is
	// sized by the same history shapes the plans index.
	if max := s.budget.MaxPlanPoolEntries; max > 0 && s.searcherCount >= max {
		s.mu.Unlock()
		return
	}
	c := sizeClass(cap(w.indegree))
	s.searchers[c] = append(s.searchers[c], w)
	s.searcherCount++
	s.mu.Unlock()
}

package search

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// bitset is a fixed-capacity bit vector over label indices; histories can
// exceed 64 labels after rewriting, so one word is not enough in general.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }

// memoShardCount is the number of independent locks (and maps) the shared
// memo table is striped across. 64 stripes keep the collision probability of
// two workers hitting the same lock at the same time negligible for the
// worker counts the engine runs (≤ GOMAXPROCS).
const memoShardCount = 64

// memoTable is the shared, lock-striped memoization table of one search: the
// set of (placed-set, spec-state) configurations some worker has started
// exploring. All workers share one table, so a configuration claimed — and,
// since a claimant's DFS only returns after exhausting its subtree, sooner or
// later fully explored — by any worker prunes every other worker.
//
// Claims are made on node entry ("claim-on-entry"), not on subtree
// completion. This is sound because a configuration determines its entire
// subtree: the first claimant explores it to exhaustion (or the search stops
// globally, in which case the overall result is a witness or a truncation and
// memo contents are moot; donated sub-branches are drained by the work queue
// before the search can terminate), so any later visitor of an equal
// configuration may skip immediately. Sequentially this is equivalent to
// marking on completion — a DFS cannot re-reach a configuration that is still
// on its own stack, because the placed set grows strictly with depth — while
// in parallel it removes the window in which two workers duplicate a subtree
// that neither has finished.
//
// In debug mode (core.CheckOptions.DebugMemo) every claimed key additionally
// stores the full word tuple it was hashed from, and a duplicate key arriving
// with a different tuple — a genuine 128-bit hash collision, which would
// silently prune a subtree that was never explored — panics instead of
// pruning. This turns the ~2⁻⁶⁴ hash-compaction risk into a checked
// invariant for differential and soak runs, at the cost of one tuple
// allocation per memoized node.
type memoTable struct {
	// debug is set by Run from the check's options before any worker touches
	// the table, and is only read afterwards.
	debug bool
	// seq marks a single-worker search: every claim routes through stripe 0
	// with no locking — the striping exists only for worker concurrency, and
	// one lazily-built map allocates far less than 64. Set by Run per check,
	// cleared by reset.
	seq bool
	// live, when non-nil, points at the session's live memo-entry counter:
	// claim increments it per stored entry and reset hands the table's
	// entries back. Session.getMemo sets it only when a memo budget
	// (Budget.MaxMemoBytes) is configured, so the unbudgeted claim path pays
	// nothing beyond a nil check.
	live   *atomic.Int64
	shards [memoShardCount]memoShard
}

type memoShard struct {
	mu sync.Mutex
	// seen is built lazily on the shard's first claim, so a sequential check
	// (which only ever touches stripe 0) allocates one map, not 64, and a
	// parallel check allocates only the stripes its keys actually hit.
	seen map[key128]struct{}
	// tuples holds the full hashed word sequence per key in debug mode
	// (nil otherwise).
	tuples map[key128][]uint64
	// count tracks len(seen) under mu, so reset can return the table's total
	// to the session's memo-budget counter without walking the maps.
	count int
	// Pad the 32 bytes of mutex + two map headers + count to a full 64-byte
	// cache line so neighboring stripes don't false-share.
	_ [32]byte
}

func newMemoTable() *memoTable { return &memoTable{} }

// reset clears every stripe while keeping the maps' allocated buckets, so a
// session's memo arena allocates its shard maps once per batch instead of
// once per history. Keys mix per-history label indices, so stale entries must
// never survive into the next check — clearing, not reuse of contents, is the
// point. Must not be called while a search is still using the table.
func (m *memoTable) reset() {
	m.debug = false
	m.seq = false
	var drained int64
	for i := range m.shards {
		drained += int64(m.shards[i].count)
		m.shards[i].count = 0
		clear(m.shards[i].seen)
		clear(m.shards[i].tuples)
	}
	if m.live != nil {
		m.live.Add(-drained)
		m.live = nil
	}
}

// claim records the configuration key and reports whether this call was the
// first to do so. A false return means an equal configuration is already
// being (or has been) explored elsewhere and the caller must skip its
// subtree. tuple is the word sequence the key was hashed from; it is ignored
// outside debug mode, where a duplicate key with a non-equal tuple is a hash
// collision and panics.
func (m *memoTable) claim(k key128, tuple []uint64) bool {
	sh := &m.shards[0]
	if !m.seq {
		sh = &m.shards[k.lo%memoShardCount]
		sh.mu.Lock()
	}
	dup := false
	if sh.seen == nil {
		sh.seen = make(map[key128]struct{}, 64)
	} else {
		_, dup = sh.seen[k]
	}
	if !dup {
		sh.seen[k] = struct{}{}
		sh.count++
		if m.debug {
			if sh.tuples == nil {
				sh.tuples = make(map[key128][]uint64)
			}
			sh.tuples[k] = append([]uint64(nil), tuple...)
		}
	} else if m.debug {
		if stored, ok := sh.tuples[k]; ok && !slices.Equal(stored, tuple) {
			if !m.seq {
				sh.mu.Unlock()
			}
			panic(fmt.Sprintf(
				"search: 128-bit memo key collision: key %016x%016x first claimed for configuration %v, re-claimed for distinct configuration %v",
				k.hi, k.lo, stored, tuple))
		}
	}
	if !m.seq {
		sh.mu.Unlock()
	}
	if !dup && m.live != nil {
		m.live.Add(1)
	}
	return !dup
}

// memoKey hashes the current search configuration into a fixed-size 128-bit
// key: the placed-label bitset, the compact-ID bitset of the main state set,
// and — in RA mode — the compact-ID bitset of every pending query's
// justification set. The future subtree is a function of exactly these (the
// placed set determines the remaining labels and their frontier structure;
// the state sets determine every further admissibility check), so pruning on
// a repeated key is sound up to hash collision. The bitsets are maintained in
// canonical trimmed form by insertKnown, so equal sets fold to equal word
// sequences — the key is whole-word mixing over data that already exists, a
// word per 64 states where the pre-bitset key mixed one word per state.
//
// The second return value is false when memoization is off: the table is
// disabled, or some reachable state does not implement core.StateKeyer (the
// shared unkeyable flag, set by the insert path, covers every worker).
//
// In debug mode the walk additionally records the exact word sequence into
// s.keyTuple (claim stores and cross-checks it); the hot path keeps its
// append-free loop.
func (s *searcher) memoKey() (key128, bool) {
	if s.memo == nil || s.sh.unkeyable.Load() {
		return key128{}, false
	}
	if s.memo.debug {
		return s.memoKeyDebug()
	}
	h := newHash128()
	for _, w := range s.placed {
		h.mix(w)
	}
	h.mix(uint64(len(s.mainWords)))
	for _, w := range s.mainWords {
		h.mix(w)
	}
	if !s.strong {
		for _, q := range s.pre.queries {
			if s.placed.get(q) {
				continue
			}
			words := s.qwords[q]
			h.mix(uint64(q)<<32 | uint64(len(words)))
			for _, w := range words {
				h.mix(w)
			}
		}
	}
	return h.sum(), true
}

// memoKeyDebug is memoKey with the hashed words captured in s.keyTuple. The
// tuple walk must stay in lockstep with memoKey: the tuple is the
// collision-check witness for exactly the words the hash consumed.
func (s *searcher) memoKeyDebug() (key128, bool) {
	h := newHash128()
	t := s.keyTuple[:0]
	for _, w := range s.placed {
		h.mix(w)
		t = append(t, w)
	}
	w0 := uint64(len(s.mainWords))
	h.mix(w0)
	t = append(t, w0)
	for _, w := range s.mainWords {
		h.mix(w)
		t = append(t, w)
	}
	if !s.strong {
		for _, q := range s.pre.queries {
			if s.placed.get(q) {
				continue
			}
			words := s.qwords[q]
			wq := uint64(q)<<32 | uint64(len(words))
			h.mix(wq)
			t = append(t, wq)
			for _, w := range words {
				h.mix(w)
				t = append(t, w)
			}
		}
	}
	s.keyTuple = t
	return h.sum(), true
}

package search

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// bitset is a fixed-capacity bit vector over label indices; histories can
// exceed 64 labels after rewriting, so one word is not enough in general.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }

// memoTable is the memoization table of one search: the set of (placed-set,
// spec-state) configurations the searcher has started exploring.
//
// Claims are made on node entry ("claim-on-entry"), not on subtree
// completion. This is sound because a configuration determines its entire
// subtree, and a DFS cannot re-reach a configuration that is still on its own
// stack (the placed set grows strictly with depth): by the time an equal
// configuration is reached again, the first claimant has explored it to
// exhaustion — or the search has stopped, in which case the result is a
// witness or a truncation and memo contents are moot.
//
// In debug mode (core.CheckOptions.DebugMemo) every claimed key additionally
// stores the full word tuple it was hashed from, and a duplicate key arriving
// with a different tuple — a genuine 128-bit hash collision, which would
// silently prune a subtree that was never explored — panics instead of
// pruning. This turns the ~2⁻⁶⁴ hash-compaction risk into a checked
// invariant for differential and soak runs, at the cost of one tuple
// allocation per memoized node.
//
// A table serves one check at a time (sessions hand each in-flight check its
// own), so it takes no lock.
type memoTable struct {
	// debug is set by Run from the check's options before the search starts.
	debug bool
	// live, when non-nil, points at the session's live memo-entry counter:
	// claim increments it per stored entry and reset hands the table's
	// entries back. Session.getMemo sets it only when a memo budget
	// (Budget.MaxMemoBytes) is configured, so the unbudgeted claim path pays
	// nothing beyond a nil check.
	live *atomic.Int64
	// seen is built lazily on the first claim.
	seen map[key128]struct{}
	// tuples holds the full hashed word sequence per key in debug mode
	// (nil otherwise).
	tuples map[key128][]uint64
}

func newMemoTable() *memoTable { return &memoTable{} }

// reset clears the table while keeping the maps' allocated buckets, so a
// session's memo arena allocates its maps once per batch instead of once per
// history. Keys mix per-history label indices, so stale entries must never
// survive into the next check — clearing, not reuse of contents, is the
// point. Must not be called while a search is still using the table.
func (m *memoTable) reset() {
	m.debug = false
	if m.live != nil {
		m.live.Add(-int64(len(m.seen)))
		m.live = nil
	}
	clear(m.seen)
	clear(m.tuples)
}

// claim records the configuration key and reports whether this call was the
// first to do so. A false return means an equal configuration has already
// been explored and the caller must skip its subtree. tuple is the word
// sequence the key was hashed from; it is ignored outside debug mode, where a
// duplicate key with a non-equal tuple is a hash collision and panics.
func (m *memoTable) claim(k key128, tuple []uint64) bool {
	if m.seen == nil {
		m.seen = make(map[key128]struct{}, 64)
	} else if _, dup := m.seen[k]; dup {
		if m.debug {
			if stored, ok := m.tuples[k]; ok && !slices.Equal(stored, tuple) {
				panic(fmt.Sprintf(
					"search: 128-bit memo key collision: key %016x%016x first claimed for configuration %v, re-claimed for distinct configuration %v",
					k.hi, k.lo, stored, tuple))
			}
		}
		return false
	}
	m.seen[k] = struct{}{}
	if m.debug {
		if m.tuples == nil {
			m.tuples = make(map[key128][]uint64)
		}
		m.tuples[k] = append([]uint64(nil), tuple...)
	}
	if m.live != nil {
		m.live.Add(1)
	}
	return true
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
// unkeyable flag, set by the insert path).
//
// In debug mode the walk additionally records the exact word sequence into
// s.keyTuple (claim stores and cross-checks it); the hot path keeps its
// append-free loop.
func (s *searcher) memoKey() (key128, bool) {
	if s.memo == nil || s.sh.unkeyable {
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

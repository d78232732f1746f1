package search

import (
	"fmt"
	"slices"
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
// The table is part of its check's searcher, so it takes no lock.
type memoTable struct {
	// debug is set from the check's options before the search starts.
	debug bool
	// seen is built lazily on the first claim.
	seen map[key128]struct{}
	// tuples holds the full hashed word sequence per key in debug mode
	// (nil otherwise).
	tuples map[key128][]uint64
}

// reset clears the table for a new check while keeping the maps' allocated
// buckets, so a pooled searcher allocates its memo maps once per session
// instead of once per history. Keys mix per-history label indices, so stale
// entries must never survive into the next check — clearing, not reuse of
// contents, is the point.
func (m *memoTable) reset(debug bool) {
	m.debug = debug
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
// The second return value is false when memoization is off: the check runs
// with DisableMemo, the memory budget tripped, or some reachable state does
// not implement core.StateKeyer (the keyable flag, cleared by the insert
// path).
//
// In debug mode the same walk also records the exact word sequence into
// s.keyTuple (claim stores and cross-checks it): each run of words is
// appended right after it is hashed, once per run rather than per word, so
// the hot path keeps its append-free loops.
func (s *searcher) memoKey() (key128, bool) {
	if !s.memoize || !s.keyable {
		return key128{}, false
	}
	debug := s.memo.debug
	s.keyTuple = s.keyTuple[:0]
	h := newHash128()
	for _, w := range s.placed {
		h.mix(w)
	}
	w0 := uint64(len(s.main.words))
	h.mix(w0)
	for _, w := range s.main.words {
		h.mix(w)
	}
	if debug {
		s.keyTuple = append(append(append(s.keyTuple, s.placed...), w0), s.main.words...)
	}
	if !s.strong {
		for _, q := range s.plan.queries {
			if s.placed.get(q) {
				continue
			}
			words := s.q[q].words
			wq := uint64(q)<<32 | uint64(len(words))
			h.mix(wq)
			for _, w := range words {
				h.mix(w)
			}
			if debug {
				s.keyTuple = append(append(s.keyTuple, wq), words...)
			}
		}
	}
	return h.sum(), true
}

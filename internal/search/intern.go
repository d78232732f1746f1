package search

import "sync"

// interner maps canonical state keys (core.StateKeyer.StateKey strings) to
// dense uint32 IDs, shared by every check of a session. Interning a state
// key once per distinct abstract state replaces all downstream string work:
// state sets become sorted ID slices, set equality becomes ID equality, and
// memo keys become fixed-size hashes over integers instead of quoted,
// re-sorted string renderings. IDs are dense (0..n-1 in first-seen order),
// stable for the lifetime of the search, and equal exactly when the keys are
// equal, so ID-based deduplication is collision-free.
//
// The table is read-mostly after warm-up (a search touches a bounded set of
// abstract states), so lookups take the read lock and only a genuinely new
// key upgrades to the write lock.
type interner struct {
	mu  sync.RWMutex
	ids map[string]uint32
	// limit caps the number of distinct keys (Budget.MaxInternedStates);
	// 0 means unlimited. At the cap, id rejects new keys instead of growing,
	// and the search degrades to unkeyed (memo-less) mode.
	limit int
	// seq marks a check-local interner (a sessionless check): exactly one
	// goroutine touches the table, so every method skips the lock. Never set on a session's shared interner — sessions admit
	// concurrent checks.
	seq bool
}

func newInterner() *interner { return newInternerLimited(0) }

func newInternerLimited(limit int) *interner {
	return &interner{ids: make(map[string]uint32, 64), limit: limit}
}

// id returns the dense ID of key, assigning the next free ID on first sight.
// The second result is false when the key is new but the interner is at its
// memory budget; known keys always resolve. The budget check lives on the
// write path only — the read-lock fast path taken for every recurring state
// is unchanged.
func (in *interner) id(key string) (uint32, bool) {
	if in.seq {
		if id, ok := in.ids[key]; ok {
			return id, true
		}
		return in.assign(key)
	}
	in.mu.RLock()
	id, ok := in.ids[key]
	in.mu.RUnlock()
	if ok {
		return id, true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[key]; ok {
		return id, true
	}
	return in.assign(key)
}

// assign inserts a new key under the budget check. The caller must hold the
// write lock (or own the table exclusively, seq mode).
func (in *interner) assign(key string) (uint32, bool) {
	if in.limit > 0 && len(in.ids) >= in.limit {
		return 0, false
	}
	id := uint32(len(in.ids))
	in.ids[key] = id
	return id, true
}

// has reports whether key is already interned, without inserting it. The
// guided searcher uses it as its novelty probe, so branch ordering never
// grows the interner and never consumes its memory budget.
func (in *interner) has(key string) bool {
	if in.seq {
		_, ok := in.ids[key]
		return ok
	}
	in.mu.RLock()
	_, ok := in.ids[key]
	in.mu.RUnlock()
	return ok
}

// size returns the number of distinct keys interned so far.
func (in *interner) size() int {
	if in.seq {
		return len(in.ids)
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.ids)
}

// key128 is a 128-bit memo key: the hash of a search configuration. Two
// distinct configurations colliding requires ~2^64 distinct keys by the
// birthday bound; searches explore at most millions, so a collision —
// which would wrongly prune one subtree — is vanishingly unlikely. This is
// the standard hash-compaction trade of explicit-state model checkers.
type key128 struct{ hi, lo uint64 }

// hash128 accumulates a key128 from a sequence of uint64 words. Both lanes
// run the splitmix64 finalizer over differently-seeded streams, so every
// input bit diffuses into all 128 output bits at each step and sequences
// differing in any word (or word order, or length) hash apart.
type hash128 struct{ a, b uint64 }

func newHash128() hash128 {
	return hash128{a: 0x9e3779b97f4a7c15, b: 0xd1b54a32d192ed03}
}

// splitmix64 is the finalizer of the splitmix64 generator: a bijective
// mixing of all 64 bits.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mix folds one word into the accumulator.
func (h *hash128) mix(x uint64) {
	h.a = splitmix64(h.a ^ x)
	h.b = splitmix64(h.b + x + 0x9e3779b97f4a7c15)
}

// sum finalizes the accumulated key. Cross-mixing the lanes makes the two
// halves independent functions of the whole input.
func (h hash128) sum() key128 {
	return key128{hi: splitmix64(h.a ^ (h.b << 1)), lo: splitmix64(h.b ^ (h.a >> 1))}
}

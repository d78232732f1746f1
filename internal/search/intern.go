package search

import "ralin/internal/core"

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

// compactor assigns dense check-local IDs to the transition table's state
// IDs (stepTable.stateID), in first-contact order, and records what each
// compact ID stands for: ids[cid] is its state ID and states[cid] its state.
// The table numbers every state its searcher reached across all the checks
// it ran, so the searcher's state sets — the bitsets of stateSet — and
// word-folded memo keys index by compact ID instead: their width tracks the
// states this check actually reaches, not the searcher's whole vocabulary,
// and stepAll reads a set's states and state IDs back from here. Assignment
// is a bijection for the duration of one check, so two sets get equal word
// sequences iff they held equal state IDs.
//
// State IDs are themselves dense from 0, so the forwarding table is a slice
// indexed by state ID, not a map — compact is an array load on the hot path.
// Each entry is stamped with the check's epoch, making the forwarding part of
// reset O(1): bumping the epoch invalidates every stale entry at once.
type compactor struct {
	epoch uint32
	// fwd[id] = epoch<<32 | cid, valid only when the stamp matches the
	// current epoch. Entries never shrink; stale stamps are dead weight until
	// the slice is reused.
	fwd    []uint64
	ids    []uint32
	states []core.AbsState
}

// compact returns the check-local ID of state ID id, whose state is phi,
// assigning the next dense ID (and recording id and phi under it) on first
// contact.
func (c *compactor) compact(id uint32, phi core.AbsState) uint32 {
	if int(id) < len(c.fwd) {
		if e := c.fwd[id]; uint32(e>>32) == c.epoch {
			return uint32(e)
		}
	}
	for int(id) >= len(c.fwd) {
		c.fwd = append(c.fwd, 0)
	}
	cid := uint32(len(c.ids))
	c.ids = append(c.ids, id)
	c.states = append(c.states, phi)
	c.fwd[id] = uint64(c.epoch)<<32 | uint64(cid)
	return cid
}

// reset starts a fresh dense ID space for the next check by bumping the
// epoch and drops the recorded states, so a pooled searcher pins none of
// them; the forwarding slice is kept but every stale entry's stamp stops
// matching. Epoch 0 is reserved as "never stamped" (the zero value of a grown
// entry), so a wrap skips it after zeroing the slice, and a zero compactor is
// reset once before its first check.
func (c *compactor) reset() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.fwd)
		c.epoch = 1
	}
	clear(c.states)
	c.ids, c.states = c.ids[:0], c.states[:0]
}

package core

import (
	"reflect"
	"sync"
)

// rewriteCacheCap bounds the number of histories a RewriteCache pins. Batch
// pipelines insert every history they check; without a cap a long batch would
// keep all of them (plus their rewritten clones) live for the whole session,
// where the uncached pipeline lets each trial's history become garbage as soon
// as its fold is done. Re-check workloads — the cache's target — cycle a small
// working set, so generation-style eviction (drop everything, start over) is
// both simple and sufficient.
const rewriteCacheCap = 256

// RewriteCache memoizes γ-rewritings per input history: a history checked
// several times through one engine session (differential runs, repeated
// figure reproductions, re-checked batches) clones and re-derives its
// rewritten form once instead of once per check. Entries are keyed by history
// *identity* (the pointer); the cached RewrittenHistory is shared by every
// subsequent Result.Rewritten the same way the aliased input history already
// is.
//
// A cached entry is only returned for the same rewriting it was built with
// (see rewritingToken) and while the history still has the label count and
// direct-edge count it had when the entry was stored. A History only grows
// (Add and AddVis never remove anything), so a history that gained labels or
// edges since — a live history re-checked after appends — misses and is
// rewritten afresh instead of being served the clone of its shorter self.
// The zero value is ready to use; all methods are safe for concurrent
// callers.
type RewriteCache struct {
	mu      sync.Mutex
	entries map[*History]rewriteEntry
	hits    int64
	misses  int64
}

// rewriteEntry is one cached rewriting: the rewriting's token, the clone, and
// the size of the history it was derived from (History.Len and
// History.DirectEdgeCount at store time).
type rewriteEntry struct {
	token any
	rew   *RewrittenHistory
	n     int
	edges int
}

// matches reports whether e is the rewriting of h, in its current size, under
// the rewriting identified by token.
func (e rewriteEntry) matches(h *History, token any) bool {
	return e.n == h.Len() && e.edges == h.DirectEdgeCount() && tokensEqual(e.token, token)
}

// RewritingTokener is an optional interface for rewritings that cannot be
// compared as values — RewriteFunc-style closures, rewritings carrying
// slices or maps — but still want RewriteCache hits across the checks of a
// session. RewritingToken must return a comparable value identifying the
// rewriting's semantics: two rewritings returning equal tokens (and sharing
// a dynamic type) are served each other's cached γ(h), so captured state
// that changes the rewriting's output must be part of the token. Returning
// nil opts out of caching for this value (the RewriteFunc default).
type RewritingTokener interface {
	Rewriting
	// RewritingToken returns a comparable semantic identity, or nil to
	// bypass the cache.
	RewritingToken() any
}

// explicitToken wraps a RewritingTokener's token together with the
// rewriting's dynamic type, so an explicit token can never collide with the
// value identity of a comparable rewriting type, or with an equal token
// returned by a rewriting of a different type.
type explicitToken struct {
	rtype reflect.Type
	token any
}

// rewritingToken derives a comparable identity for a rewriting, so the cache
// can tell "same γ again" from "different γ for the same history".
// Rewritings implementing RewritingTokener choose their own identity (nil
// opts out). Otherwise only rewritings of comparable types get one: their
// value is the identity (the descriptor rewritings are zero-size named
// types, composed rewritings carry their *System). Function-typed rewritings
// (RewriteFunc) have no usable implicit identity — a code pointer would
// alias closures over the same body whose captured state differs, which is
// exactly how composed-system rewritings used to be built — so without an
// explicit token they report ok=false and bypass the cache entirely.
func rewritingToken(g Rewriting) (any, bool) {
	if g == nil {
		return nil, true
	}
	if tr, ok := g.(RewritingTokener); ok {
		tok := tr.RewritingToken()
		if tok == nil {
			return nil, false
		}
		return explicitToken{rtype: reflect.TypeOf(g), token: tok}, true
	}
	if t := reflect.TypeOf(g); t.Comparable() {
		return g, true
	}
	return nil, false
}

// tokensEqual compares two tokens, treating a comparison panic as "not
// equal". A token's static type being comparable does not make every value
// safely comparable — a struct whose interface field holds a func at run time
// panics under == — and a cache keyed on user-supplied rewritings must not
// crash the check over it.
func tokensEqual(a, b any) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}

// lookup returns the cached rewriting of h in its current size under the
// rewriting identified by token, or nil.
func (c *RewriteCache) lookup(h *History, token any) *RewrittenHistory {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[h]; ok && e.matches(h, token) {
		c.hits++
		return e.rew
	}
	c.misses++
	return nil
}

// store records the rewriting of h, evicting the whole current generation
// when the cache is full. An existing entry for h in its current size wins —
// concurrent checks of the same history may race to store, and keeping the
// first published entry keeps the cached pointer stable for everyone who
// already read it; an entry for a smaller h is replaced.
func (c *RewriteCache) store(h *History, token any, rew *RewrittenHistory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[*History]rewriteEntry)
	}
	if e, ok := c.entries[h]; ok && e.matches(h, token) {
		return
	}
	if len(c.entries) >= rewriteCacheCap {
		clear(c.entries)
	}
	c.entries[h] = rewriteEntry{token: token, rew: rew, n: h.Len(), edges: h.DirectEdgeCount()}
}

// Clear drops every cached rewriting (the hit/miss counters are kept). The
// search session's memory-budget eviction calls it so a tripped session
// releases the pinned histories and clones along with its other caches.
func (c *RewriteCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
}

// Stats returns the lookup hit/miss counters.
func (c *RewriteCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached rewritings.
func (c *RewriteCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// RewriteCacher is implemented by engine sessions that carry a rewrite cache
// (search.Session does). CheckRA consults it before deriving a rewriting, so
// batches that thread a session re-clone each distinct history at most once.
type RewriteCacher interface {
	RewriteCache() *RewriteCache
}

// RewriteForCheck derives the γ-rewriting of h exactly the way CheckRA with
// the same options would — including the session rewrite-cache probe and the
// nil-rewriting aliasing fast path — and reports whether it was served from
// the cache. Engine sessions implementing the incremental Extender entry use
// it to capture the same RewrittenHistory pointer the preceding from-scratch
// check worked on, which they then extend in place as h grows. Growing h
// retires its cache entry (see RewriteCache), so a later check of the grown
// h derives a fresh rewriting.
func RewriteForCheck(h *History, opts CheckOptions) (*RewrittenHistory, bool, error) {
	return rewriteForCheck(h, opts)
}

// RewritingIdentity returns a comparable value identifying the semantics of a
// rewriting, or ok=false when the rewriting has no usable identity (the
// RewriteFunc default). Two rewritings with equal identities produce the same
// γ(h) for every h; incremental extension compares identities across calls to
// decide whether the cached rewritten clone may be grown in place.
func RewritingIdentity(g Rewriting) (any, bool) { return rewritingToken(g) }

// rewriteForCheck is CheckRA's entry into the rewriting: the session's
// rewrite cache when one is available and applicable (non-nil rewriting with
// a usable identity — the nil rewriting's aliasing fast path is already
// cheaper than a cache probe), and a plain RewriteHistory otherwise. The
// second result reports whether the rewriting was served from the cache.
func rewriteForCheck(h *History, opts CheckOptions) (*RewrittenHistory, bool, error) {
	if opts.Rewriting == nil || opts.Session == nil {
		rew, err := RewriteHistory(h, opts.Rewriting)
		return rew, false, err
	}
	rc, ok := opts.Session.(RewriteCacher)
	if !ok {
		rew, err := RewriteHistory(h, opts.Rewriting)
		return rew, false, err
	}
	cache := rc.RewriteCache()
	token, ok := rewritingToken(opts.Rewriting)
	if cache == nil || !ok {
		rew, err := RewriteHistory(h, opts.Rewriting)
		return rew, false, err
	}
	if rew := cache.lookup(h, token); rew != nil {
		return rew, true, nil
	}
	rew, err := RewriteHistory(h, opts.Rewriting)
	if err != nil {
		return nil, false, err
	}
	cache.store(h, token, rew)
	return rew, false, nil
}

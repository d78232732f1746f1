package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ralin/internal/clock"
)

// randomHistory builds a random acyclic history with n labels: each label may
// see a random subset of the earlier ones (closed under transitivity by the
// History implementation itself).
func randomHistory(rng *rand.Rand, n int) *History {
	h := NewHistory()
	for i := 1; i <= n; i++ {
		kind := KindUpdate
		if rng.Intn(3) == 0 {
			kind = KindQuery
		}
		l := &Label{ID: uint64(i), Method: "op", Kind: kind, GenSeq: uint64(i), Origin: clock.ReplicaID(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			l.TS = clock.Timestamp{Time: uint64(rng.Intn(20) + 1), Replica: l.Origin}
		}
		h.MustAdd(l)
		for j := 1; j < i; j++ {
			if rng.Intn(3) == 0 {
				h.MustAddVis(uint64(j), uint64(i))
			}
		}
	}
	return h
}

func TestHistoryVisibilityIsStrictPartialOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 2+rng.Intn(7))
		labels := h.Labels()
		for _, a := range labels {
			if h.Vis(a.ID, a.ID) {
				return false // irreflexive
			}
			for _, b := range labels {
				if h.Vis(a.ID, b.ID) && h.Vis(b.ID, a.ID) {
					return false // asymmetric
				}
				for _, c := range labels {
					if h.Vis(a.ID, b.ID) && h.Vis(b.ID, c.ID) && !h.Vis(a.ID, c.ID) {
						return false // transitive
					}
				}
			}
		}
		return h.IsAcyclic()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryConcurrentIsSymmetricAndExclusive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 2+rng.Intn(7))
		labels := h.Labels()
		for _, a := range labels {
			for _, b := range labels {
				if a.ID == b.ID {
					continue
				}
				if h.Concurrent(a.ID, b.ID) != h.Concurrent(b.ID, a.ID) {
					return false
				}
				related := h.Vis(a.ID, b.ID) || h.Vis(b.ID, a.ID)
				if related == h.Concurrent(a.ID, b.ID) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearExtensionsAreConsistentWithVisibility(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 2+rng.Intn(5))
		ok := true
		LinearExtensions(h, 200, func(seq []*Label) bool {
			if err := h.ConsistentWithVis(seq); err != nil {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearExtensionsAreDistinct(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 2+rng.Intn(5))
		seen := map[string]bool{}
		ok := true
		LinearExtensions(h, 500, func(seq []*Label) bool {
			key := ""
			for _, l := range seq {
				key += FormatValue(l.ID) + "·"
			}
			if seen[key] {
				ok = false
				return false
			}
			seen[key] = true
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructiveLinearizationsPreserveLabelSets(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 1+rng.Intn(8))
		eo := ExecutionOrderLinearization(h)
		to := TimestampOrderLinearization(h)
		if len(eo) != h.Len() || len(to) != h.Len() {
			return false
		}
		seenEO := map[uint64]bool{}
		for _, l := range eo {
			seenEO[l.ID] = true
		}
		for _, l := range to {
			if !seenEO[l.ID] {
				return false
			}
		}
		// Execution order is sorted by generator sequence.
		for i := 1; i < len(eo); i++ {
			if eo[i-1].GenSeq > eo[i].GenSeq {
				return false
			}
		}
		// Timestamp order is sorted by the history timestamp.
		for i := 1; i < len(to); i++ {
			if h.HistoryTimestamp(to[i]).Less(h.HistoryTimestamp(to[i-1])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampOrderRespectsVisibilityWhenTimestampsDo(t *testing.T) {
	// When every label's timestamp order is consistent with visibility (as
	// guaranteed by the runtime's monotone generators), the timestamp-order
	// linearization is consistent with visibility.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistory()
		n := 2 + rng.Intn(6)
		for i := 1; i <= n; i++ {
			l := &Label{
				ID: uint64(i), Method: "op", Kind: KindUpdate, GenSeq: uint64(i),
				TS: clock.Timestamp{Time: uint64(i), Replica: 0},
			}
			h.MustAdd(l)
			for j := 1; j < i; j++ {
				if rng.Intn(3) == 0 {
					h.MustAddVis(uint64(j), uint64(i))
				}
			}
		}
		return h.ConsistentWithVis(TimestampOrderLinearization(h)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteHistoryPreservesStructure(t *testing.T) {
	// Identity-rewritten histories keep their labels, kinds and visibility.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 1+rng.Intn(7))
		rew, err := RewriteHistory(h, nil)
		if err != nil {
			return false
		}
		if rew.History.Len() != h.Len() {
			return false
		}
		if !rew.History.IsAcyclic() {
			return false
		}
		for _, a := range h.Labels() {
			img := rew.QueryPart(a.ID)
			if img == nil || img.Kind != a.Kind || img.Method != a.Method {
				return false
			}
			for _, b := range h.Labels() {
				if a.ID == b.ID {
					continue
				}
				if h.Vis(a.ID, b.ID) && !rew.History.Vis(rew.UpdatePart(a.ID).ID, rew.QueryPart(b.ID).ID) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedSetIdempotentAndSorted(t *testing.T) {
	prop := func(elems []string) bool {
		once := SortedSet(elems)
		twice := SortedSet(once)
		if !ValueEqual(once, twice) {
			return false
		}
		for i := 1; i < len(once); i++ {
			if once[i-1] >= once[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

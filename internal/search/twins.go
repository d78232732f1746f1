package search

import (
	"math/bits"
	"slices"

	"ralin/internal/core"
)

// Twin symmetry. Two labels are twins when a specification cannot tell them
// apart and visibility orders them the same way:
//
//   - they share a content ID (stepTable): they agree on every field a
//     transition may read;
//   - they have identical transitive predecessor and successor rows.
//
// Twins are concurrent (a twin in its twin's predecessor row would be its
// own predecessor), and swapping two of them maps the visibility relation
// onto itself. Swapping them in a linearization therefore keeps condition
// (i), leaves every update projection and every query's justification the
// same sequence of spec-indistinguishable labels, and so keeps (ii) and
// (iii), in RA and strong mode alike. Any witness thus sorts into one that
// places each twin class in candidate order, and the search only ever offers
// the first unplaced member of each class: twinNext chains a class in
// candidate order, and the searcher treats a link as one more visibility
// edge. The chained relation stays acyclic: a cycle through it would close a
// visibility path between two twins.

// maxTwinClasses bounds how many distinct twin classes buildTwins keeps per
// fingerprint bucket. Distinct classes share a bucket only on a fingerprint
// collision, so the bound practically never binds on honest input; past it
// a label simply stays without twins, and a crafted history cannot force a
// quadratic pair scan.
const maxTwinClasses = 4

// buildTwins fills p.twinNext (sized by build) from the plan's content IDs
// (p.cids, numbered by the table whose representatives are reps), rows and
// candidate order. Each label gets one sort key: its fingerprint's high bits
// above its candidate position. Sorting the keys makes every bucket (labels
// with equal high bits) a contiguous run in candidate order, and the exact
// predicate runs only inside a bucket, against at most maxTwinClasses class
// heads. Plans of up to 64 labels sort on the stack; larger ones reuse the
// plan's pooled p.twinKeys.
func (p *prepared) buildTwins(reps []contentRep) {
	n := len(p.order)
	shift := bits.Len(uint(n))
	var small [64]uint64
	keys := small[:0]
	if n > len(small) {
		if cap(p.twinKeys) < n {
			p.twinKeys = make([]uint64, 0, n)
		}
		keys = p.twinKeys[:0]
	}
	for pi, i := range p.order {
		p.twinNext[i] = -1
		keys = append(keys, p.twinFingerprint(i, reps)>>shift<<shift|uint64(pi))
	}
	slices.Sort(keys)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi]>>shift == keys[lo]>>shift {
			hi++
		}
		if hi-lo > 1 {
			p.linkBucket(keys[lo:hi], uint64(1)<<shift-1)
		}
		lo = hi
	}
}

// linkBucket chains the twin classes of one bucket: each label, in candidate
// order, joins the first class whose head it is a twin of, or opens a new
// class while fewer than maxTwinClasses are open.
func (p *prepared) linkBucket(bucket []uint64, posMask uint64) {
	var heads, tails [maxTwinClasses]int
	classes := 0
	for _, key := range bucket {
		i := p.order[key&posMask]
		k := 0
		for k < classes && !p.twins(heads[k], i) {
			k++
		}
		switch {
		case k < classes:
			p.twinNext[tails[k]] = i
			tails[k] = i
		case classes < maxTwinClasses:
			heads[classes], tails[classes] = i, i
			classes++
		}
	}
}

// twins is the exact twin predicate over plan indices a and b.
func (p *prepared) twins(a, b int) bool {
	return p.cids[a] == p.cids[b] && slices.Equal(p.preds[a], p.preds[b]) && slices.Equal(p.succs[a], p.succs[b])
}

// twinFingerprint hashes every input of the twin predicate for label i: its
// content through the hash the ID pass stored with its representative — a
// function of the content alone, where the ID also depends on which contents
// the table met first — and its two rows. Twins always hash equal.
func (p *prepared) twinFingerprint(i int, reps []contentRep) uint64 {
	h := fnv(fnvOffset)
	h.mix(reps[p.cids[i]].hash)
	h.mix(uint64(hashRow(p.preds[i])))
	h.mix(uint64(hashRow(p.succs[i])))
	// FNV's low bits depend only on its inputs' low bits; the finalizer
	// spreads every input bit over the whole key.
	return splitmix64(uint64(h))
}

// fnv accumulates FNV-1a over whole words: one multiply per word. It is
// weak as hashes go, which is all bucketing needs — the exact predicate
// verifies every bucket, so a collision costs a comparison, never a wrong
// twin.
type fnv uint64

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func (h *fnv) mix(x uint64) { *h = (*h ^ fnv(x)) * fnvPrime }

// mixString folds a string into h, eight bytes per word.
func (h *fnv) mixString(s string) {
	h.mix(uint64(len(s)))
	var w uint64
	for k := 0; k < len(s); k++ {
		w = w<<8 | uint64(s[k])
		if k&7 == 7 {
			h.mix(w)
			w = 0
		}
	}
	h.mix(w)
}

// mixValue folds a label value into h: a type tag, then the contents for the
// value types the specifications use. Values equal under core.ValueEqual
// (reflect.DeepEqual) always mix equal words.
func (h *fnv) mixValue(v core.Value) {
	switch x := v.(type) {
	case nil:
		h.mix(0)
	case string:
		h.mix(1)
		h.mixString(x)
	case int:
		h.mix(2)
		h.mix(uint64(x))
	case int64:
		h.mix(3)
		h.mix(uint64(x))
	case uint64:
		h.mix(4)
		h.mix(x)
	case []string:
		h.mix(5)
		h.mix(uint64(len(x)))
		for _, e := range x {
			h.mixString(e)
		}
	case core.Pair:
		h.mix(6)
		h.mixString(x.Elem)
		h.mix(x.ID)
	case []core.Pair:
		h.mix(7)
		h.mix(uint64(len(x)))
		for _, e := range x {
			h.mixString(e.Elem)
			h.mix(e.ID)
		}
	default:
		h.mix(8)
	}
}

// hashRow hashes one predecessor or successor row.
func hashRow(row []int) fnv {
	h := fnv(fnvOffset)
	for _, x := range row {
		h.mix(uint64(x))
	}
	return h
}

package core

import "math/bits"

// bitset is a dense bit vector over history ranks, the row type of the
// visibility ancestor index. Rows grow lazily — a rank nothing is visible to
// holds no words at all — and only ever grow, so reslicing never resurfaces
// stale bits.
type bitset []uint64

// test reports whether bit i is set. Bits beyond the allocated words are
// unset by definition, so test never grows the row.
func (b bitset) test(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// grow extends the row to at least words words, zero-filling the extension.
func (b *bitset) grow(words int) {
	if len(*b) >= words {
		return
	}
	if cap(*b) >= words {
		old := len(*b)
		*b = (*b)[:words]
		clear((*b)[old:])
		return
	}
	grown := make(bitset, words, max(words, 2*cap(*b)))
	copy(grown, *b)
	*b = grown
}

// set sets bit i and reports whether it was previously clear.
func (b *bitset) set(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	b.grow(w + 1)
	if (*b)[w]&m != 0 {
		return false
	}
	(*b)[w] |= m
	return true
}

// orInto ORs src into b, growing b as needed, and reports whether any bit of
// b changed. This is the closure-maintenance kernel: propagating a new edge
// ORs the source's ancestor row into the target's and every successor's in
// word-sized strides instead of per-pair map inserts.
func (b *bitset) orInto(src bitset) bool {
	b.grow(len(src))
	dst := *b
	changed := false
	for w, s := range src {
		if s&^dst[w] != 0 {
			dst[w] |= s
			changed = true
		}
	}
	return changed
}

// forEach calls fn for every set bit in ascending order.
func (b bitset) forEach(fn func(i int)) {
	for w, word := range b {
		base := w << 6
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

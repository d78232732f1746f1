package core

// This file holds the chunked per-history arenas backing the visibility
// index. Before them, every AddVis edge paid ~3 small heap allocations: the
// first adjacency entry of a rank allocated its slice, the mirrored entry
// allocated the reverse slice, and the first ancestor bit of a rank
// allocated its bitset row. The arenas carve all three out of chunked backing
// arrays owned by the history, so edge insertion allocates only when a chunk
// fills — amortized to ~0 allocations per edge (BenchmarkAddVisSparse gates
// the drop). Carved regions are never recycled: a row that outgrows its
// carve is re-carved with doubled capacity and the old region becomes dead
// weight inside its chunk, which stays reachable only while some row still
// points into it. That waste is bounded by the doubling and is the price of
// keeping rows ordinary slices (no indirection on the read path).
//
// The γ-rewriting does not use the arenas: RewriteHistory's transport knows
// every row of γ(h) up front and carves them from slabs sized exactly for
// γ(h), so a small rewritten history pays no 12 KiB of first chunks. Its rows
// are capped at their length; a later AddVis (ExtendRewriting) that grows
// one re-carves it from the arenas like any other row.

// arenaChunkWords is the allocation unit of wordArena: 8 KiB of row words.
const arenaChunkWords = 1024

// arenaChunkEdges is the allocation unit of int32Arena: 4 KiB of adjacency
// entries.
const arenaChunkEdges = 1024

// wordArena carves []uint64 rows (bitset backing) out of chunked arrays. The
// zero value is ready to use; the arena itself only holds the current chunk —
// finished chunks are kept alive by the rows carved from them.
type wordArena struct {
	cur []uint64
}

// carve returns a zero-length row with capacity n words. The row is
// three-index sliced, so appending beyond n cannot bleed into a neighbouring
// carve — it falls back to an ordinary heap grow instead.
func (a *wordArena) carve(n int) []uint64 {
	if len(a.cur)+n > cap(a.cur) {
		size := arenaChunkWords
		if n > size {
			size = n
		}
		a.cur = make([]uint64, 0, size)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	return a.cur[off : off : off+n]
}

// int32Arena carves []int32 adjacency rows out of chunked arrays; same
// contract as wordArena.
type int32Arena struct {
	cur []int32
}

// carve returns a zero-length row with capacity n entries.
func (a *int32Arena) carve(n int) []int32 {
	if len(a.cur)+n > cap(a.cur) {
		size := arenaChunkEdges
		if n > size {
			size = n
		}
		a.cur = make([]int32, 0, size)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	return a.cur[off : off : off+n]
}

// appendEdge appends v to an arena-backed adjacency row, re-carving with
// doubled capacity when the row is full (the old carve becomes chunk-internal
// waste, bounded by the doubling).
func (a *int32Arena) appendEdge(row []int32, v int32) []int32 {
	if len(row) == cap(row) {
		want := 2 * len(row)
		if want < 4 {
			want = 4
		}
		fresh := a.carve(want)[:len(row)]
		copy(fresh, row)
		row = fresh
	}
	return append(row, v)
}

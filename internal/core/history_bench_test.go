package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// addVisLabels populates a fresh history with n update labels, the shared
// setup of the AddVis benchmarks (label insertion is untimed — the
// benchmarks isolate relation maintenance).
func addVisLabels(n int) *History {
	h := NewHistory()
	for i := 1; i <= n; i++ {
		h.MustAdd(&Label{ID: uint64(i), Method: "add", Kind: KindUpdate, GenSeq: uint64(i)})
	}
	return h
}

// BenchmarkAddVisDense measures incremental closure maintenance on the
// densest closure a chain produces: edge i -> i+1 appended in rank order, so
// every insertion ORs the whole chain above it into the new sink's ancestor
// row and the final closure holds n·(n-1)/2 pairs.
// Under the previous map-of-maps closure each edge rescanned the whole
// relation for predecessors and inserted the new closure pairs one map entry
// at a time; the index ORs word-sized strides instead.
func BenchmarkAddVisDense(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := addVisLabels(n)
				b.StartTimer()
				for id := 1; id < n; id++ {
					h.MustAddVis(uint64(id), uint64(id+1))
				}
			}
		})
	}
}

// BenchmarkAddVisSparse measures the disjoint-pairs extreme: n/2 independent
// edges, no transitive consequences, so the cost is the direct-edge append
// plus one single-bit propagation each — the floor of AddVis, and the shape
// whose ~3 allocations/edge the chunked arenas eliminate.
func BenchmarkAddVisSparse(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := addVisLabels(n)
				b.StartTimer()
				for id := 1; id+1 <= n; id += 2 {
					h.MustAddVis(uint64(id), uint64(id+1))
				}
			}
		})
	}
}

// layeredEdges returns the edges of a layered DAG over n labels in layers of
// width w: every label of one layer visible to every label of the next,
// grouped by source.
func layeredEdges(n, w int) []VisEdge {
	var edges []VisEdge
	for base := 1; base+w <= n; base += w {
		next := base + w
		width := w
		if next+width-1 > n {
			width = n - next + 1
		}
		for u := base; u < base+w; u++ {
			for v := next; v < next+width; v++ {
				edges = append(edges, VisEdge{From: uint64(u), To: uint64(v)})
			}
		}
	}
	return edges
}

// BenchmarkAddVisLayered measures AddVis on a layered DAG (width 16), where
// every edge pays a propagation walk over the whole layer above it.
func BenchmarkAddVisLayered(b *testing.B) {
	const width = 16
	for _, n := range []int{256, 1024} {
		edges := layeredEdges(n, width)
		b.Run(fmt.Sprintf("n=%d/seq", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := addVisLabels(n)
				b.StartTimer()
				for _, e := range edges {
					h.MustAddVis(e.From, e.To)
				}
			}
		})
	}
}

// appendSources returns, for each label 1..n of a monitor-shaped history,
// the sources of the visibility edges it arrives with: labels round-robin
// over four replicas, each sees its replica's previous label, and three in
// ten also see a random earlier label — about 1.3 direct edges per label, the
// density of the monitor-orset histories. Every edge targets the newest
// label, so each append is a sink whose causal past grows with the history.
func appendSources(n int, seed int64) [][]uint64 {
	const replicas = 4
	rng := rand.New(rand.NewSource(seed))
	srcs := make([][]uint64, n+1)
	for id := 2; id <= n; id++ {
		if id > replicas {
			srcs[id] = append(srcs[id], uint64(id-replicas))
		}
		if rng.Intn(10) < 3 {
			srcs[id] = append(srcs[id], uint64(1+rng.Intn(id-1)))
		}
	}
	return srcs
}

// BenchmarkAddVisAppend measures how a monitor grows a history: every label
// is appended with its incoming edges, as a sink (appendSources). The
// ancestor index absorbs each edge in the new label's row alone, so the cost
// per label is O(words) at any n, however deep its causal past.
func BenchmarkAddVisAppend(b *testing.B) {
	for _, n := range []int{256, 2048} {
		srcs := appendSources(n, 1)
		labels := make([]*Label, n+1)
		for id := 1; id <= n; id++ {
			labels[id] = &Label{ID: uint64(id), Method: "add", Kind: KindUpdate, GenSeq: uint64(id)}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := NewHistory()
				for id := 1; id <= n; id++ {
					h.MustAdd(labels[id])
					for _, from := range srcs[id] {
						h.MustAddVis(from, uint64(id))
					}
				}
			}
		})
	}
}

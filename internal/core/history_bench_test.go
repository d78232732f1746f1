package core

import (
	"fmt"
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

// BenchmarkAddVisDense measures incremental reachability maintenance on the
// densest closure a chain produces: edge i -> i+1 appended in rank order, so
// every insertion propagates the new sink to every predecessor (the
// worst-case reverse walk) and the final closure holds n·(n-1)/2 pairs.
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

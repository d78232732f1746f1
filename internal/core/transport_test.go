package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"ralin/internal/compose"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/crdt/mvreg"
	"ralin/internal/crdt/orset"
	"ralin/internal/crdt/registry"
	"ralin/internal/crdt/rga"
	"ralin/internal/runtime"
)

// registryHistory runs ops random operations of d over three replicas with
// random deliveries, the workload of harness.RunRandom (this package cannot
// import the harness: it registers the pruned engine, which would change the
// engine every other test of the package runs).
func registryHistory(t *testing.T, d crdt.Descriptor, seed int64, ops int) *core.History {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	elems := []string{"a", "b", "c"}
	if d.OpType != nil {
		sys := d.NewOpSystem(runtime.Config{Replicas: 3})
		for i := 0; i < ops; i++ {
			if _, err := d.RandomOp(rng, sys, elems); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(100) < 40 {
				sys.DeliverRandom(rng)
			}
		}
		return sys.History()
	}
	sys := d.NewSBSystem(runtime.Config{Replicas: 3})
	for i := 0; i < ops; i++ {
		if _, err := d.RandomOp(rng, sys, elems); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(100) < 40 {
			sys.ExchangeRandom(rng)
		}
	}
	return sys.History()
}

// rewritingOf returns d's rewriting, with the identity standing in for nil so
// every history takes the transport rather than the aliasing fast path.
func rewritingOf(g core.Rewriting) core.Rewriting {
	if g == nil {
		return core.IdentityRewriting{}
	}
	return g
}

// checkGrown compares RewriteHistory(h, g) with the oracle, then regrows h
// one label at a time — each label arriving with the direct edges that
// target it — extending a transport of its first label through
// ExtendRewriting, and compares every extension with the oracle too.
func checkGrown(t *testing.T, name string, h *core.History, g core.Rewriting) {
	t.Helper()
	rew, err := core.RewriteHistory(h, g)
	if err := core.CheckTransport(h, g, rew, err); err != nil {
		t.Fatalf("%s: transport: %v", name, err)
	}
	into := map[uint64][]core.VisEdge{}
	h.DirectVisEdges(func(from, to uint64) {
		into[to] = append(into[to], core.VisEdge{From: from, To: to})
	})
	grown := core.NewHistory()
	var ext *core.RewrittenHistory
	for r := 0; r < h.Len(); r++ {
		l := h.LabelAt(r)
		grown.MustAdd(l)
		edges := into[l.ID]
		slices.SortFunc(edges, func(a, b core.VisEdge) int {
			ra, _ := h.RankOf(a.From)
			rb, _ := h.RankOf(b.From)
			return ra - rb
		})
		for _, e := range edges {
			if fr, _ := h.RankOf(e.From); fr > r {
				t.Fatalf("%s: edge %v comes from a later label; the history cannot grow op by op", name, e)
			}
			grown.MustAddVis(e.From, e.To)
		}
		if ext == nil {
			if ext, err = core.RewriteHistory(grown, g); err != nil {
				t.Fatalf("%s: prefix transport: %v", name, err)
			}
			continue
		}
		if err := core.ExtendRewriting(ext, grown, r, g); err != nil {
			t.Fatalf("%s: extension to %d labels: %v", name, r+1, err)
		}
		if err := core.CheckTransport(grown, g, ext, nil); err != nil {
			t.Fatalf("%s: extension to %d labels: %v", name, r+1, err)
		}
	}
}

// TestRewriteTransportRegistry compares the transport with the oracle over
// random histories of every registry descriptor, and over random histories
// of a composition whose objects rewrite differently (OR-Set splits removes,
// MV-Reg retags writes, RGA keeps the identity), fresh and grown op by op.
func TestRewriteTransportRegistry(t *testing.T) {
	for _, d := range registry.All() {
		for _, ops := range []int{8, 24} {
			for seed := int64(1); seed <= 12; seed++ {
				h := registryHistory(t, d, seed, ops)
				checkGrown(t, d.Name, h, rewritingOf(d.Rewriting))
			}
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		sys := compose.MustNewSystem(compose.Unrestricted, 3,
			compose.Object{Name: "s", Descriptor: orset.Descriptor()},
			compose.Object{Name: "m", Descriptor: mvreg.Descriptor()},
			compose.Object{Name: "l", Descriptor: rga.Descriptor()})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 24; i++ {
			if rng.Intn(3) == 0 {
				sys.DeliverRandom(rng)
				continue
			}
			if _, err := sys.RandomOp(rng, []string{"a", "b", "c"}); err != nil {
				t.Fatal(err)
			}
		}
		checkGrown(t, "composition", sys.History(), compose.RewritingOf(sys))
	}
}

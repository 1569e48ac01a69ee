package plus_test

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/internal/workload"
)

// allocNodes is the size of the graph the allocation guards run over.
const allocNodes = 4000

// benchShapedBackend loads a graph shaped like cmd/plusbench's (5 edges
// per node, one node in ten protected with a surrogate) of allocNodes
// nodes into a mem backend.
func benchShapedBackend(t *testing.T) *plus.MemBackend {
	t.Helper()
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	err := workload.GenerateLarge(workload.LargeConfig{Nodes: allocNodes, EdgesPerNode: 5, ProtectEvery: 10, BatchSize: 1024, Seed: 1},
		func(batch plus.Batch) error { _, err := b.Apply(batch); return err })
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColdLineageAllocsPerClosureNode is a clock-free guard on what one
// cold lineage answer costs: the allocations of Engine.Lineage plus the
// response body, per node of the closure, for a depth-5 ancestry over a
// graph shaped like cmd/plusbench's (5 edges per node, one node in ten
// protected with a surrogate). Each feature map is built once per answer
// and shared from there on, G' is derived from G's slots and the body is
// appended without reflection, which costs ≈8 allocations per closure
// node; a reflective encode (≈20 more) or per-element copies in Generate
// take it past the bound of 12.
func TestColdLineageAllocsPerClosureNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	b := benchShapedBackend(t)
	en := plus.NewEngine(b, privilege.TwoLevel())
	req := plus.Request{Start: workload.LargeNodeID(allocNodes - 2), Direction: graph.Backward, Depth: 5,
		Viewer: privilege.Public, Mode: plus.ModeSurrogate}
	res, err := en.Lineage(req)
	if err != nil {
		t.Fatal(err)
	}
	closure := res.Spec.Graph.NumNodes()
	if closure < 500 || len(res.Account.SurrogateNodes) == 0 {
		t.Fatalf("closure of %d nodes, %d surrogates: not the shape this guard is sized for", closure, len(res.Account.SurrogateNodes))
	}
	var body []byte
	allocs := testing.AllocsPerRun(5, func() {
		res, err := en.Lineage(req)
		if err != nil {
			t.Fatal(err)
		}
		if body, err = plus.AppendLineageBody(body[:0], req, res); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(closure)
	t.Logf("%.0f allocations for a %d-node closure: %.1f per closure node", allocs, closure, perNode)
	if perNode > 12 {
		t.Errorf("%.1f allocations per closure node, want at most 12", perNode)
	}
}

// TestCachedLineageHitAllocs is a clock-free guard on a cache hit: it
// returns the body the miss encoded, so it allocates nothing that grows
// with the answer. A depth-3 and a depth-5 ancestry over the graph of
// TestColdLineageAllocsPerClosureNode (closures of different sizes) must
// cost the same, at most 2 allocations; encoding the answer again on a
// hit costs dozens, more at depth 5 than at depth 3.
func TestCachedLineageHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ce := plus.NewCachedEngine(plus.NewEngine(benchShapedBackend(t), privilege.TwoLevel()))
	ctx := context.Background()
	var counts [2]float64
	for i, depth := range []int{3, 5} {
		req := plus.Request{Start: workload.LargeNodeID(allocNodes - 2), Direction: graph.Backward, Depth: depth,
			Viewer: privilege.Public, Mode: plus.ModeSurrogate}
		miss, err := ce.LineageBody(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = testing.AllocsPerRun(100, func() {
			hit, err := ce.LineageBody(ctx, req)
			if err != nil || len(hit) != len(miss) {
				t.Fatalf("hit: %d bytes, err %v; the miss wrote %d", len(hit), err, len(miss))
			}
		})
		t.Logf("depth %d: a %d-byte body, %.0f allocations per hit", depth, len(miss), counts[i])
	}
	if st := ce.Stats(); st.Misses != 2 || st.Hits < 200 {
		t.Fatalf("stats = %+v: want every ask after the first of each depth a hit", st)
	}
	if counts[0] != counts[1] || counts[1] > 2 {
		t.Errorf("a hit allocates %.0f times at depth 3 and %.0f at depth 5, want the same and at most 2", counts[0], counts[1])
	}
}

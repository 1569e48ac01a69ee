package plus_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/internal/workload"
)

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
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	const nodes = 4000
	err := workload.GenerateLarge(workload.LargeConfig{Nodes: nodes, EdgesPerNode: 5, ProtectEvery: 10, BatchSize: 1024, Seed: 1},
		func(batch plus.Batch) error { _, err := b.Apply(batch); return err })
	if err != nil {
		t.Fatal(err)
	}
	en := plus.NewEngine(b, privilege.TwoLevel())
	req := plus.Request{Start: workload.LargeNodeID(nodes - 2), Direction: graph.Backward, Depth: 5,
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

package plus_test

import (
	"context"
	"runtime"
	"strconv"
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
// protected with a surrogate). Each node's feature map is the one the
// store shaped at ingest, G' is derived from G's slots and the body is
// appended without reflection, which costs ≈5 allocations per closure
// node; a feature map built per node per answer (≈7.3 before the store
// shaped them), a reflective encode (≈20 more) or per-element copies in
// Generate take it past the bound of 8.
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
	if perNode > 8 {
		t.Errorf("%.1f allocations per closure node, want at most 8", perNode)
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

// TestServedMissBytesPerClosureNode is a clock-free guard on the bytes one
// served cold lineage answer allocates, the response body included: the
// whole CachedEngine.LineageBody miss (fetch, build, protect, measure,
// encode and the cache's own copy), read from runtime.MemStats.TotalAlloc
// over 36 misses on distinct starts, at depth 3 and at depth 5, over the
// graph of TestColdLineageAllocsPerClosureNode, after four misses have
// filled graph.Release's spares with graphs of the depth's size. It reports the bytes per
// closure node and their ratio to the bodies returned. The store hands
// fetch its adjacency and each node's graph-form feature map without
// copies, the spec and account maps are sized from the closure, the
// anchor walks are keyed by slot and the body is encoded into reused
// scratch and kept as one exact-size copy: ≈1.3 KB per closure node at
// depth 5, bound 1 382 B (1.35 KB) at either depth, and at most 6× the
// body at depth 5. Building each node's feature map per miss took
// ≈1.66 KB.
func TestServedMissBytesPerClosureNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	b := benchShapedBackend(t)
	en := plus.NewEngine(b, privilege.TwoLevel())
	ctx := context.Background()
	const starts = 36
	for _, depth := range []int{3, 5} {
		reqs := make([]plus.Request, starts)
		closure := 0
		for i := range reqs {
			reqs[i] = plus.Request{Start: workload.LargeNodeID(allocNodes - 1 - i), Direction: graph.Backward, Depth: depth,
				Viewer: privilege.Public, Mode: plus.ModeSurrogate}
			res, err := en.Lineage(reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			closure += res.Spec.Graph.NumNodes()
		}
		// Misses recycle G and G' through graph.Release; fill its spares
		// with graphs of this depth's size first, so the figure is a
		// serving miss's whatever earlier tests left there.
		for _, req := range reqs[:4] {
			if _, err := plus.NewCachedEngine(en).LineageBody(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		ce := plus.NewCachedEngine(en)
		var before, after runtime.MemStats
		bodies := 0
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, req := range reqs {
			body, err := ce.LineageBody(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			bodies += len(body)
		}
		runtime.ReadMemStats(&after)
		if st := ce.Stats(); st.Misses != starts || st.Hits != 0 {
			t.Fatalf("depth %d: stats %+v, want %d misses and no hit", depth, st, starts)
		}
		alloc := float64(after.TotalAlloc - before.TotalAlloc)
		perNode, ratio := alloc/float64(closure), alloc/float64(bodies)
		t.Logf("depth %d: %d misses over %d closure nodes allocated %.0f KB: %.0f B per closure node, %.1f× the %d KB of bodies",
			depth, starts, closure, alloc/1024, perNode, ratio, bodies/1024)
		if perNode > 1382 {
			t.Errorf("depth %d: %.0f bytes allocated per closure node, want at most 1382", depth, perNode)
		}
		if depth == 5 && ratio > 6 {
			t.Errorf("depth %d: a miss allocates %.1f× its body, want at most 6×", depth, ratio)
		}
	}
}

// TestLineageDecodeAllocsPerNode is a clock-free guard on what decoding a
// lineage answer costs the client: LineageResponse.UnmarshalJSON over the
// depth-5 body of TestCachedLineageHitAllocs, per node of the answer. The
// decoder keeps one string copy of the body and slices every unescaped
// string out of it, so it allocates the node and edge slices and one
// feature map per node, ≈2 allocations per node; reflective encoding/json
// takes ≈27 and fails the bound of 4.
func TestLineageDecodeAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ce := plus.NewCachedEngine(plus.NewEngine(benchShapedBackend(t), privilege.TwoLevel()))
	req := plus.Request{Start: workload.LargeNodeID(allocNodes - 2), Direction: graph.Backward, Depth: 5,
		Viewer: privilege.Public, Mode: plus.ModeSurrogate}
	body, err := ce.LineageBody(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var resp plus.LineageResponse
	if err := resp.UnmarshalJSON(body); err != nil {
		t.Fatal(err)
	}
	nodes := len(resp.Nodes)
	if nodes < 500 || len(resp.Edges) < 2*nodes {
		t.Fatalf("an answer of %d nodes and %d edges: not the shape this guard is sized for", nodes, len(resp.Edges))
	}
	allocs := testing.AllocsPerRun(20, func() {
		var resp plus.LineageResponse
		if err := resp.UnmarshalJSON(body); err != nil || len(resp.Nodes) != nodes {
			t.Fatalf("decoded %d nodes, err %v; want %d", len(resp.Nodes), err, nodes)
		}
	})
	perNode := allocs / float64(nodes)
	t.Logf("%.0f allocations to decode a %d KB body of %d nodes and %d edges: %.1f per node",
		allocs, len(body)/1024, nodes, len(resp.Edges), perNode)
	if perNode > 4 {
		t.Errorf("%.1f allocations per node, want at most 4", perNode)
	}
}

// TestRestoreChurnHeapBounded is a clock-free guard on what history costs
// the store: re-storing one object, each time with a feature value never
// seen before, must leave retained heap bounded by the change-feed horizon
// (1 024 changes here), not by the number of writes. From 50 000 to
// 200 000 re-stores the heap may grow by at most 2 MB; a table that keeps
// every string ever stored grows by ≈100 B per write, ≈14 MB over the
// same span.
func TestRestoreChurnHeapBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures differ under -race")
	}
	b := plus.NewMemBackend(0)
	defer b.Close()
	b.SetChangeHorizon(1024)
	writes := 0
	restore := func(until int) {
		for ; writes < until; writes++ {
			o := plus.Object{ID: "churn", Kind: plus.Data, Name: "churn",
				Features: map[string]string{"seq": strconv.Itoa(writes)}}
			if err := b.PutObject(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	restore(50_000)
	before := heap()
	restore(200_000)
	growth := heap() - before
	t.Logf("%d re-stores of one object grew the heap by %d KB", writes-50_000, growth/1024)
	if growth > 2<<20 {
		t.Errorf("heap grew by %d KB over %d re-stores of one object, want at most 2048 KB", growth/1024, writes-50_000)
	}
}

// TestRetainedHeapPerStoredRecord is a clock-free guard on what a stored
// object costs the heap it stays in: the record table's entry, the
// change-feed entry, the object's strings and its one feature map. It
// loads n and then 4n objects into a mem backend, once posted without
// features (the shape of plusbench's small-batch writes) and once with
// three user features (the shape of its bulk load), and reads
// runtime.MemStats after a GC at each size: the growth from n to 4n per
// object added, of heap in use and of live heap. A GC after every batch
// recycles the posted maps the store does not keep, so the figures count
// what the store keeps rather than where the last batch's garbage sits.
// The parent of the commit that shaped features at ingest read 534–540 B
// in use (476–479 B live) without features and 905–910 B (840–844 B)
// with three, over five runs; shaping them reads 535–541 B (476–480 B)
// and 909–916 B (840–842 B). A second feature map per featured object
// would add ≈340 B to the second row, and a flag field on every stored
// object ≈16 B to both.
func TestRetainedHeapPerStoredRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures differ under -race")
	}
	const n = 8192 // a multiple of the batch size: both reads follow a full batch
	for _, tc := range []struct {
		name        string
		feats       func(i int) map[string]string
		inUse, live float64
	}{
		{"featureless", func(int) map[string]string { return nil }, 545, 482},
		{"three features", func(i int) map[string]string {
			return map[string]string{"owner": workload.LargeOwner(i % 97), "stage": "s" + strconv.Itoa(i%7),
				"batch": "b" + strconv.Itoa(i)}
		}, 920, 846},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := plus.NewMemBackend(0)
			defer b.Close()
			load := func(from, to int) {
				var batch plus.Batch
				for i := from; i < to; i++ {
					batch.Objects = append(batch.Objects, plus.Object{ID: workload.LargeNodeID(i), Kind: plus.Data,
						Name: workload.LargeName(i % 1000), Features: tc.feats(i)})
					if len(batch.Objects) == 1024 || i == to-1 {
						if _, err := b.Apply(batch); err != nil {
							t.Fatal(err)
						}
						batch = plus.Batch{}
						runtime.GC()
					}
				}
			}
			heap := func() (inUse, live int64) {
				var ms runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return int64(ms.HeapInuse), int64(ms.HeapAlloc)
			}
			load(0, n)
			inUse0, live0 := heap()
			load(n, 4*n)
			inUse1, live1 := heap()
			inUse, live := float64(inUse1-inUse0)/(3*n), float64(live1-live0)/(3*n)
			t.Logf("%s: %.0f B of heap in use, %.0f B live, per stored object from %d to %d objects", tc.name, inUse, live, n, 4*n)
			if inUse > tc.inUse || live > tc.live {
				t.Errorf("%s: %.0f B in use and %.0f B live per stored object, want at most %.0f and %.0f",
					tc.name, inUse, live, tc.inUse, tc.live)
			}
		})
	}
}

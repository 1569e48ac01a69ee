package repro_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/account"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/internal/workload"
)

// BenchmarkTable1 regenerates Table 1: the four Figure 2 protected
// accounts of the running example plus their path-utility and opacity
// measures.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFigure3 regenerates the Figure 3 walkthrough: the naive account
// G'_N and its utility measures.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the motif analysis: hide and surrogate
// accounts plus measures for all seven Figure 6 motifs.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatal("wrong row count")
		}
	}
}

// benchGrid is a reduced synthetic grid so one benchmark iteration stays
// around a second; cmd/experiments runs the full 50-graph paper grid.
func benchGrid() []workload.SyntheticConfig {
	var cfgs []workload.SyntheticConfig
	for fi, f := range []float64{0.10, 0.50, 0.90} {
		cfgs = append(cfgs, workload.SyntheticConfig{
			Nodes:           100,
			TargetConnected: 30,
			ProtectFraction: f,
			Seed:            int64(9000 + fi),
		})
	}
	return cfgs
}

// BenchmarkFigure8 regenerates the utility-vs-opacity frontier over the
// synthetic sweep.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.SyntheticSweep(benchGrid())
		if err != nil {
			b.Fatal(err)
		}
		if pts := eval.Figure8(rows); len(pts) == 0 {
			b.Fatal("no frontier points")
		}
	}
}

// BenchmarkFigure9 regenerates the surrogate-vs-hide difference surfaces
// over the synthetic sweep.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.SyntheticSweep(benchGrid())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.DeltaUtility() <= 0 {
				b.Fatalf("non-positive utility difference %v", r.DeltaUtility())
			}
		}
	}
}

// BenchmarkFigure10 regenerates the end-to-end performance experiment:
// store creation, cold reopen, lineage fetch, graph build and both
// protection strategies.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "plus-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eval.Figure10(dir, 200); err != nil {
			os.RemoveAll(dir)
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

// protectFixture builds one 200-node synthetic spec for the micro-benches
// below (the per-activity bars of Figure 10).
func protectFixture(b *testing.B, asSurrogate bool) *account.Spec {
	b.Helper()
	syn, err := workload.GenerateSynthetic(workload.SyntheticConfig{
		Nodes: 200, TargetConnected: 50, ProtectFraction: 0.3, Seed: 4242,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.ProtectSpec(syn.Graph, syn.Protected, asSurrogate)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkProtectViaHide measures the "protect via hide" bar on a
// 200-node graph with 30% of edges protected.
func BenchmarkProtectViaHide(b *testing.B) {
	spec := protectFixture(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := account.GenerateHide(spec, privilege.Public); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtectViaSurrogate measures the "protect via surrogate" bar on
// the same workload.
func BenchmarkProtectViaSurrogate(b *testing.B) {
	spec := protectFixture(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := account.Generate(spec, privilege.Public); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathUtility measures the Path Utility Measure on a 200-node
// protected account.
func BenchmarkPathUtility(b *testing.B) {
	spec := protectFixture(b, true)
	a, err := account.Generate(spec, privilege.Public)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if u := measure.PathUtility(spec, a); u <= 0 {
			b.Fatal("bad utility")
		}
	}
}

// BenchmarkAverageOpacity measures per-edge opacity averaged over the
// protected edges of a 200-node account.
func BenchmarkAverageOpacity(b *testing.B) {
	syn, err := workload.GenerateSynthetic(workload.SyntheticConfig{
		Nodes: 200, TargetConnected: 50, ProtectFraction: 0.3, Seed: 4242,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.ProtectSpec(syn.Graph, syn.Protected, true)
	if err != nil {
		b.Fatal(err)
	}
	a, err := account.Generate(spec, privilege.Public)
	if err != nil {
		b.Fatal(err)
	}
	adv := measure.Figure5()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op := measure.AverageOpacity(spec, a, syn.Protected, adv); op <= 0 {
			b.Fatal("bad opacity")
		}
	}
}

// BenchmarkSurrogateGeneration scales the Surrogate Generation Algorithm
// across graph sizes (the O(n^2 d) analysis of Appendix B).
func BenchmarkSurrogateGeneration(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		b.Run(sizeName(n), func(b *testing.B) {
			syn, err := workload.GenerateSynthetic(workload.SyntheticConfig{
				Nodes: n, TargetConnected: float64(n) / 4, ProtectFraction: 0.3, Seed: int64(n),
			})
			if err != nil {
				b.Fatal(err)
			}
			spec, err := workload.ProtectSpec(syn.Graph, syn.Protected, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := account.Generate(spec, privilege.Public); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	return fmt.Sprintf("nodes=%d", n)
}

// BenchmarkGenerateForSet measures multi-predicate high-water-set
// generation (two incomparable viewers at once) against the singleton
// path on the running example.
func BenchmarkGenerateForSet(b *testing.B) {
	r := eval.NewRunning()
	spec, err := r.Spec(eval.Fig2d)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("singleton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := account.Generate(spec, "High-2"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pair", func(b *testing.B) {
		hw := []privilege.Predicate{"High-1", "High-2"}
		for i := 0; i < b.N; i++ {
			if _, err := account.GenerateForSet(spec, hw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchBackends enumerates the storage engines the substrate benches
// compare: the durable log and the in-memory backend.
func benchBackends(b *testing.B) map[string]func() plus.Backend {
	b.Helper()
	return map[string]func() plus.Backend{
		"log": func() plus.Backend {
			store, err := plus.Open(b.TempDir()+"/bench.log", plus.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { store.Close() })
			return store
		},
		"mem": func() plus.Backend {
			m := plus.NewMemBackend(0)
			b.Cleanup(func() { m.Close() })
			return m
		},
	}
}

// populateBackend fills any backend with a 200-node provenance DAG and
// returns the deepest node.
func populateBackend(b *testing.B, store plus.Backend) string {
	b.Helper()
	syn, err := workload.GenerateSynthetic(workload.SyntheticConfig{
		Nodes: 200, TargetConnected: 50, ProtectFraction: 0, Seed: 77,
	})
	if err != nil {
		b.Fatal(err)
	}
	ids := syn.Graph.Nodes()
	for i, id := range ids {
		o := plus.Object{ID: string(id), Kind: plus.Data, Name: "n"}
		if i%2 == 1 {
			o.Kind = plus.Invocation
		}
		if i%5 == 0 {
			o.Lowest = "Protected"
			o.Protect = "surrogate"
		}
		if err := store.PutObject(o); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range syn.Graph.Edges() {
		if err := store.PutEdge(plus.Edge{From: string(e.From), To: string(e.To)}); err != nil {
			b.Fatal(err)
		}
	}
	return string(ids[len(ids)-1])
}

// plusFixture populates a store with a 200-node provenance DAG for the
// substrate micro-benches.
func plusFixture(b *testing.B) (*plus.LogBackend, string) {
	b.Helper()
	dir := b.TempDir()
	store, err := plus.Open(dir+"/bench.log", plus.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	return store, populateBackend(b, store)
}

// BenchmarkStoreAppend measures raw object append throughput.
func BenchmarkStoreAppend(b *testing.B) {
	dir := b.TempDir()
	store, err := plus.Open(dir+"/append.log", plus.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := plus.Object{ID: fmt.Sprintf("o%08d", i), Kind: plus.Data, Name: "benchmark object"}
		if err := store.PutObject(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLineageQuery measures a full-ancestry protected lineage query —
// the paper's canonical path-traversal workload.
func BenchmarkLineageQuery(b *testing.B) {
	store, sink := plusFixture(b)
	engine := plus.NewEngine(store, privilege.TwoLevel())
	req := plus.Request{Start: sink, Direction: graph.Backward, Viewer: privilege.Public}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Lineage(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLineageQueryCached measures the same query through the
// invalidating cache (steady-state: every call after the first is a hit).
func BenchmarkLineageQueryCached(b *testing.B) {
	store, sink := plusFixture(b)
	engine := plus.NewCachedEngine(plus.NewEngine(store, privilege.TwoLevel()))
	req := plus.Request{Start: sink, Direction: graph.Backward, Viewer: privilege.Public}
	if _, err := engine.Lineage(req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Lineage(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackendAppend compares raw object append throughput across
// storage backends.
func BenchmarkBackendAppend(b *testing.B) {
	for name, open := range benchBackends(b) {
		b.Run(name, func(b *testing.B) {
			store := open()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := plus.Object{ID: fmt.Sprintf("o%08d", i), Kind: plus.Data, Name: "benchmark object"}
				if err := store.PutObject(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackendLineage compares one protected full-ancestry lineage
// query across storage backends.
func BenchmarkBackendLineage(b *testing.B) {
	for name, open := range benchBackends(b) {
		b.Run(name, func(b *testing.B) {
			store := open()
			sink := populateBackend(b, store)
			engine := plus.NewEngine(store, privilege.TwoLevel())
			req := plus.Request{Start: sink, Direction: graph.Backward, Viewer: privilege.Public}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Lineage(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLineageParallel measures concurrent lineage reads through the
// snapshot engine with b.RunParallel: because queries traverse immutable
// snapshots instead of holding the store's read lock, throughput should
// scale with readers (raise -cpu to see the curve) instead of
// serializing on one mutex.
func BenchmarkLineageParallel(b *testing.B) {
	for name, open := range benchBackends(b) {
		b.Run(name, func(b *testing.B) {
			store := open()
			sink := populateBackend(b, store)
			engine := plus.NewEngine(store, privilege.TwoLevel())
			req := plus.Request{Start: sink, Direction: graph.Backward, Viewer: privilege.Public}
			// Warm the snapshot cache so every iteration measures
			// traversal, not the one-off clone.
			if _, err := engine.Lineage(req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := engine.Lineage(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkSnapshot measures the cost of taking a snapshot: the cached
// fast path (steady read-heavy state) versus a fresh clone after every
// write.
func BenchmarkSnapshot(b *testing.B) {
	for name, open := range benchBackends(b) {
		b.Run(name+"/cached", func(b *testing.B) {
			store := open()
			populateBackend(b, store)
			if _, err := store.Snapshot(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/afterWrite", func(b *testing.B) {
			store := open()
			populateBackend(b, store)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := plus.Object{ID: fmt.Sprintf("w%08d", i), Kind: plus.Data, Name: "w"}
				if err := store.PutObject(o); err != nil {
					b.Fatal(err)
				}
				if _, err := store.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphReachability measures the ConnectedPairs primitive both
// measures lean on.
func BenchmarkGraphReachability(b *testing.B) {
	syn, err := workload.GenerateSynthetic(workload.SyntheticConfig{
		Nodes: 200, TargetConnected: 60, ProtectFraction: 0.1, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	ids := syn.Graph.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if syn.Graph.ConnectedPairs(ids[i%len(ids)]) < 0 {
			b.Fatal("impossible")
		}
	}
}

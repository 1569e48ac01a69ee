package plusql

import (
	"testing"

	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/internal/workload"
)

// indexBenchQueries is the point-predicate panel: name-anchored lookups
// whose posting size stays constant as the graph grows (the name pool
// scales with the node count), so the indexed latency curve must be flat
// while the naive scan grows linearly.
var indexBenchQueries = []string{
	`name(X, "name00007")`,
	`name(X, "name00012"), kind(X, data)`,
	`name(X, "name00005"), attr(X, "owner", "u0042")`,
}

// largeBackend streams a workload.GenerateLarge DAG into a fresh
// in-memory backend.
func largeBackend(tb testing.TB, nodes int) plus.Backend {
	tb.Helper()
	return largeBackendOf(tb, workload.LargeConfig{Nodes: nodes, Seed: 11})
}

func largeBackendOf(tb testing.TB, cfg workload.LargeConfig) plus.Backend {
	tb.Helper()
	b := plus.NewMemBackend(0)
	tb.Cleanup(func() { b.Close() })
	err := workload.GenerateLarge(cfg, func(batch plus.Batch) error {
		_, err := b.Apply(batch)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// BenchmarkPointQueryIndexed measures the point panel with the planner
// allowed to lower predicates into index scans.
func BenchmarkPointQueryIndexed(b *testing.B) { benchPointQuery(b, false) }

// BenchmarkPointQueryNaive measures the same panel with planning
// disabled (linear scan-and-filter).
func BenchmarkPointQueryNaive(b *testing.B) { benchPointQuery(b, true) }

func benchPointQuery(b *testing.B, naive bool) {
	back := largeBackend(b, 50_000)
	e := NewEngine(back, privilege.TwoLevel())
	if _, err := e.Query(`name(X, "name00007")`, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := indexBenchQueries[i%len(indexBenchQueries)]
		if _, err := e.Query(src, Options{Naive: naive}); err != nil {
			b.Fatal(err)
		}
	}
}

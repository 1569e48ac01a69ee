package plusql

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
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

// avgQueryUS answers the panel iters times in one mode and returns the
// mean per-query latency in microseconds.
func avgQueryUS(tb testing.TB, e *Engine, naive bool, iters int) float64 {
	tb.Helper()
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, src := range indexBenchQueries {
			if _, err := e.Query(src, Options{Naive: naive}); err != nil {
				tb.Fatalf("%s (naive=%v): %v", src, naive, err)
			}
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(iters*len(indexBenchQueries))
}

// indexScaleResult is one rung of the BENCH_index.json ladder.
type indexScaleResult struct {
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	ViewBuildMS float64 `json:"viewBuildMs"`
	// IndexedUS/ScanUS are mean per-query latencies of the point panel
	// with and without the secondary indexes.
	IndexedUS float64 `json:"indexedUs"`
	ScanUS    float64 `json:"scanUs"`
	Speedup   float64 `json:"speedup"`
	// FindIndexedUS/FindScanUS compare the storage-level name index
	// against a full-object scan for one seed-resolution probe.
	FindIndexedUS float64 `json:"findIndexedUs"`
	FindScanUS    float64 `json:"findScanUs"`
	FindSpeedup   float64 `json:"findSpeedup"`
	// LineageUS is a name-seeded (multi-seed) depth-2 lineage answer.
	LineageUS float64 `json:"lineageUs"`
}

type indexReport struct {
	Queries []string           `json:"queries"`
	Scales  []indexScaleResult `json:"scales"`
}

// benchScales reads the INDEX_BENCH_SCALES ladder (default 10k/50k; CI
// and the committed BENCH_index.json use larger rungs).
func benchScales(tb testing.TB) []int {
	spec := os.Getenv("INDEX_BENCH_SCALES")
	if spec == "" {
		spec = "10000,50000"
	}
	var scales []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1000 {
			tb.Fatalf("bad INDEX_BENCH_SCALES entry %q", f)
		}
		scales = append(scales, n)
	}
	return scales
}

// TestIndexSpeedupReport runs the point-predicate panel indexed and
// naive at every ladder scale, requires the indexed path to win — by
// >=10x from 100k nodes up — with a sublinear indexed latency curve, and
// (with BENCH_WRITE=1) emits BENCH_index.json at the repo root.
func TestIndexSpeedupReport(t *testing.T) {
	if testing.Short() {
		t.Skip("index speedup ladder skipped in -short mode")
	}
	report := indexReport{Queries: indexBenchQueries}
	for _, nodes := range benchScales(t) {
		back := largeBackend(t, nodes)
		e := NewEngine(back, privilege.TwoLevel())

		// First query materialises the protected view (and its indexes);
		// everything after runs against the warm cache.
		buildStart := time.Now()
		if _, err := e.Query(`name(X, "name00007")`, Options{}); err != nil {
			t.Fatal(err)
		}
		buildMS := float64(time.Since(buildStart).Microseconds()) / 1000

		// Naive queries scan the whole view; keep the iteration budget
		// roughly constant in total scanned nodes. Both modes take the
		// best of three interleaved rounds so one GC pause or scheduler
		// stall cannot skew the ratio or the cross-scale curve.
		naiveIters := 2_000_000 / nodes
		if naiveIters < 2 {
			naiveIters = 2
		}
		scanUS, indexedUS := math.Inf(1), math.Inf(1)
		for round := 0; round < 3; round++ {
			runtime.GC()
			if us := avgQueryUS(t, e, true, naiveIters); us < scanUS {
				scanUS = us
			}
			runtime.GC()
			if us := avgQueryUS(t, e, false, 50); us < indexedUS {
				indexedUS = us
			}
		}

		// Storage-level index: resolve one name's posting against a full
		// object scan over the same snapshot.
		sn, err := back.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		probe := workload.LargeName(7)
		// The storage index builds lazily on the first probe; warm it so
		// the loop measures steady-state lookups.
		if got := sn.FindByName(probe); len(got) == 0 {
			t.Fatalf("FindByName(%q) found nothing", probe)
		}
		start := time.Now()
		for i := 0; i < 100; i++ {
			if got := sn.FindByName(probe); len(got) == 0 {
				t.Fatalf("FindByName(%q) found nothing", probe)
			}
		}
		findIndexedUS := float64(time.Since(start).Microseconds()) / 100
		start = time.Now()
		var scanHits int
		for _, o := range sn.Objects() {
			if o.Name == probe {
				scanHits++
			}
		}
		findScanUS := float64(time.Since(start).Microseconds())
		if scanHits == 0 {
			t.Fatalf("scan for %q found nothing", probe)
		}

		// Multi-seed lineage, seeded through the same index.
		len8 := plus.NewEngine(back, privilege.TwoLevel())
		start = time.Now()
		if _, err := len8.Lineage(plus.Request{
			StartName: probe, Direction: graph.Backward, Depth: 2,
		}); err != nil {
			t.Fatal(err)
		}
		lineageUS := float64(time.Since(start).Microseconds())

		res := indexScaleResult{
			Nodes:         nodes,
			Edges:         back.NumEdges(),
			ViewBuildMS:   buildMS,
			IndexedUS:     indexedUS,
			ScanUS:        scanUS,
			Speedup:       scanUS / indexedUS,
			FindIndexedUS: findIndexedUS,
			FindScanUS:    findScanUS,
			FindSpeedup:   findScanUS / findIndexedUS,
			LineageUS:     lineageUS,
		}
		report.Scales = append(report.Scales, res)
		t.Logf("%d nodes / %d edges: indexed %.1fus vs scan %.1fus (%.1fx); find %.1fus vs %.1fus (%.1fx); view build %.0fms",
			res.Nodes, res.Edges, res.IndexedUS, res.ScanUS, res.Speedup,
			res.FindIndexedUS, res.FindScanUS, res.FindSpeedup, res.ViewBuildMS)

		if res.Speedup <= 1 {
			t.Errorf("%d nodes: indexed path (%.1fus) does not beat the scan (%.1fus)",
				nodes, res.IndexedUS, res.ScanUS)
		}
		if nodes >= 100_000 && res.Speedup < 10 {
			t.Errorf("%d nodes: speedup %.1fx, want >= 10x", nodes, res.Speedup)
		}
		if res.FindSpeedup <= 1 {
			t.Errorf("%d nodes: storage name index (%.1fus) does not beat the scan (%.1fus)",
				nodes, res.FindIndexedUS, res.FindScanUS)
		}
	}

	// Sublinear curve: between ladder rungs the indexed latency must grow
	// strictly slower than the graph (the scan is the linear reference).
	for i := 1; i < len(report.Scales); i++ {
		a, b := report.Scales[i-1], report.Scales[i]
		growth := float64(b.Nodes) / float64(a.Nodes)
		if ratio := b.IndexedUS / a.IndexedUS; ratio > growth/2 {
			t.Errorf("indexed latency grew %.1fx from %d to %d nodes (graph grew %.0fx): not sublinear",
				ratio, a.Nodes, b.Nodes, growth)
		}
	}

	if os.Getenv("BENCH_WRITE") == "1" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../../BENCH_index.json", append(data, '\n'), 0o644); err != nil {
			t.Logf("could not write BENCH_index.json: %v", err)
		}
	}
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

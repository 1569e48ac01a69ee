package plusql

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/plus"
	"repro/internal/privilege"
)

// mixedWorkloadBackend builds a layered provenance DAG of n objects where
// a protected minority (with surrogates) is threaded through public
// chains — the shape whose protected views are expensive to rebuild.
func mixedWorkloadBackend(tb testing.TB, n int) plus.Backend {
	tb.Helper()
	b := plus.NewMemBackend(0)
	tb.Cleanup(func() { b.Close() })
	rng := rand.New(rand.NewSource(42))
	batch := plus.Batch{}
	flush := func() {
		if batch.Len() == 0 {
			return
		}
		if _, err := b.Apply(batch); err != nil {
			tb.Fatal(err)
		}
		batch = plus.Batch{}
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		o := plus.Object{ID: id, Kind: plus.Data, Name: id}
		if i%3 == 0 {
			o.Kind = plus.Invocation
		}
		if i%10 == 5 { // protected minority with surrogates
			o.Lowest = "Protected"
			o.Protect = "surrogate"
			batch.Surrogates = append(batch.Surrogates, plus.SurrogateSpec{
				ForID: id, ID: id + "~", Name: "anon", InfoScore: 0.5,
			})
		}
		batch.Objects = append(batch.Objects, o)
		for t := 0; t < 2 && i > 0; t++ {
			from := fmt.Sprintf("n%d", rng.Intn(i))
			dup := false
			for _, e := range batch.Edges {
				if e.From == from && e.To == id {
					dup = true
				}
			}
			if !dup {
				batch.Edges = append(batch.Edges, plus.Edge{From: from, To: id, Label: "input-to"})
			}
		}
		if batch.Len() >= 128 {
			flush()
		}
	}
	flush()
	return b
}

// runMixedWorkload interleaves writes and queries: every iteration stores
// a small batch (a new node wired into the existing graph, sometimes
// protected with its surrogate) and then answers queries, which forces the
// engine to bring its protected view to the new revision first.
func runMixedWorkload(tb testing.TB, b plus.Backend, e *Engine, iters, queriesPerWrite int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	n := b.NumObjects()
	for i := 0; i < iters; i++ {
		id := fmt.Sprintf("w%d", i)
		o := plus.Object{ID: id, Kind: plus.Data, Name: id}
		batch := plus.Batch{Objects: []plus.Object{o}}
		if i%10 == 5 {
			batch.Objects[0].Lowest = "Protected"
			batch.Objects[0].Protect = "surrogate"
			batch.Surrogates = []plus.SurrogateSpec{{ForID: id, ID: id + "~", Name: "anon", InfoScore: 0.5}}
		}
		batch.Edges = []plus.Edge{{From: fmt.Sprintf("n%d", rng.Intn(n)), To: id, Label: "input-to"}}
		if _, err := b.Apply(batch); err != nil {
			tb.Fatal(err)
		}
		for q := 0; q < queriesPerWrite; q++ {
			if _, err := e.Query(`node(X), kind(X, invocation) limit 5`, Options{}); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func benchMixed(b *testing.B, incremental bool) {
	back := mixedWorkloadBackend(b, 3200)
	e := NewEngine(back, privilege.TwoLevel())
	e.SetIncremental(incremental)
	// Warm the first view so both modes start from a materialised cache.
	if _, err := e.Query(`node("n0")`, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	runMixedWorkload(b, back, e, b.N, 2)
}

// BenchmarkMixedWorkloadIncremental measures the write-heavy mix with
// delta-scoped view refresh (the serving default).
func BenchmarkMixedWorkloadIncremental(b *testing.B) { benchMixed(b, true) }

// BenchmarkMixedWorkloadRebuild measures the same mix with incremental
// refresh disabled: every write forces a whole-snapshot account rebuild on
// the next query.
func BenchmarkMixedWorkloadRebuild(b *testing.B) { benchMixed(b, false) }

// incrementalReport is the schema of BENCH_incremental.json.
type incrementalReport struct {
	Nodes           int     `json:"nodes"`
	Edges           int     `json:"edges"`
	Writes          int     `json:"writes"`
	QueriesPerWrite int     `json:"queriesPerWrite"`
	IncrementalMS   float64 `json:"incrementalMs"`
	RebuildMS       float64 `json:"rebuildMs"`
	Speedup         float64 `json:"speedup"`
	Advanced        uint64  `json:"advanced"`
	AdvanceRebuilds uint64  `json:"advanceRebuilds"`
	FullBuilds      uint64  `json:"fullBuilds"`
}

// TestIncrementalSpeedupReport runs the write-heavy mix both ways on a
// >=1k-node graph, requires the delta-scoped refresh to beat full rebuild
// by at least 5x, and (with BENCH_WRITE=1) emits the measurements as
// BENCH_incremental.json at the repository root.
func TestIncrementalSpeedupReport(t *testing.T) {
	const (
		nodes           = 3200
		writes          = 40
		queriesPerWrite = 2
	)
	measure := func(incremental bool) (time.Duration, plus.QueryCacheHealth) {
		back := mixedWorkloadBackend(t, nodes)
		e := NewEngine(back, privilege.TwoLevel())
		e.SetIncremental(incremental)
		if _, err := e.Query(`node("n0")`, Options{}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		runMixedWorkload(t, back, e, writes, queriesPerWrite)
		return time.Since(start), e.CacheStats()
	}

	// Interleave three rounds and keep the best of each mode, which
	// shields the ratio from scheduler noise.
	best := func(samples []time.Duration) time.Duration {
		m := samples[0]
		for _, s := range samples[1:] {
			if s < m {
				m = s
			}
		}
		return m
	}
	var incSamples, rebSamples []time.Duration
	var incStats plus.QueryCacheHealth
	for round := 0; round < 3; round++ {
		d, st := measure(true)
		incSamples = append(incSamples, d)
		incStats = st
		d, _ = measure(false)
		rebSamples = append(rebSamples, d)
	}
	inc, reb := best(incSamples), best(rebSamples)
	speedup := float64(reb) / float64(inc)

	if incStats.Advanced == 0 {
		t.Fatalf("incremental run never advanced a view: %+v", incStats)
	}

	back := mixedWorkloadBackend(t, nodes)
	report := incrementalReport{
		Nodes:           nodes,
		Edges:           back.NumEdges(),
		Writes:          writes,
		QueriesPerWrite: queriesPerWrite,
		IncrementalMS:   float64(inc.Microseconds()) / 1000,
		RebuildMS:       float64(reb.Microseconds()) / 1000,
		Speedup:         speedup,
		Advanced:        incStats.Advanced,
		AdvanceRebuilds: incStats.AdvanceRebuilds,
		FullBuilds:      incStats.FullBuilds,
	}
	if os.Getenv("BENCH_WRITE") == "1" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../../BENCH_incremental.json", append(data, '\n'), 0o644); err != nil {
			t.Logf("could not write BENCH_incremental.json: %v", err)
		}
	}
	t.Logf("write-heavy mix over %d nodes: incremental %v, rebuild %v, speedup %.1fx (advanced %d, rebuilds %d)",
		nodes, inc, reb, speedup, incStats.Advanced, incStats.AdvanceRebuilds)

	if speedup < 5 {
		t.Errorf("incremental refresh speedup = %.2fx, want >= 5x (incremental %v, rebuild %v)", speedup, inc, reb)
	}
}

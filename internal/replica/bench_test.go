package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// benchEnv reads an integer knob from the environment.
func benchEnv(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

type benchScenario struct {
	Name            string  `json:"name"`
	Followers       int     `json:"followers"`
	Readers         int     `json:"readers"`
	DurationSec     float64 `json:"durationSec"`
	Queries         uint64  `json:"queries"`
	QPS             float64 `json:"qps"`
	QueryErrors     uint64  `json:"queryErrors"`
	IngestWrites    uint64  `json:"ingestWrites"`
	MaxLagRevisions uint64  `json:"maxLagRevisions"`
	MaxLagSeconds   float64 `json:"maxLagSeconds"`
	ApplyEvents     uint64  `json:"applyEvents,omitempty"`
	ApplyBatches    uint64  `json:"applyBatches,omitempty"`
}

type benchReport struct {
	Benchmark string `json:"benchmark"`
	Command   string `json:"command"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Config    struct {
		Chains          int `json:"chains"`
		SeedDepth       int `json:"seedDepth"`
		WriteIntervalMS int `json:"writeIntervalMs"`
		CoalesceMS      int `json:"coalesceMs"`
	} `json:"config"`
	Scenarios []benchScenario `json:"scenarios"`
	// SpeedupAggregate3x is 3-follower aggregate qps over single-node qps
	// under identical concurrent primary ingest.
	SpeedupAggregate3x float64 `json:"speedupAggregate3x"`
}

// TestFollowerScalingReport measures aggregate read throughput against a
// primary under continuous ingest, then against 1 and 3 read replicas of
// it, and (with BENCH_WRITE=1) writes BENCH_replica.json at the repo
// root. The contrast it demonstrates is the one replicas exist for: on
// the primary every write lands individually, so each lineage query pays
// a cache refresh and — when the write touched the queried closure — a
// full recompute, while a coalescing follower applies the same stream in group-committed batches
// and serves the reads between batches from cache. Lag is sampled
// throughout and reported, bounding the staleness the throughput was
// bought with.
//
// Scale knobs (environment): REPLICA_BENCH_SECONDS per scenario (default
// 3), REPLICA_BENCH_READERS (default 4), REPLICA_BENCH_CHAINS (default
// 2), REPLICA_BENCH_DEPTH seed depth (default 250),
// REPLICA_BENCH_WRITE_INTERVAL_MS (default 10), REPLICA_BENCH_COALESCE_MS
// (default 600).
func TestFollowerScalingReport(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling benchmark skipped in -short")
	}
	if raceEnabled {
		t.Skip("scaling benchmark skipped under the race detector: its throughput numbers would be meaningless")
	}
	var (
		seconds   = benchEnv("REPLICA_BENCH_SECONDS", 3)
		readers   = benchEnv("REPLICA_BENCH_READERS", 4)
		chains    = benchEnv("REPLICA_BENCH_CHAINS", 2)
		seedDepth = benchEnv("REPLICA_BENCH_DEPTH", 250)
		writeMS   = benchEnv("REPLICA_BENCH_WRITE_INTERVAL_MS", 10)
		coalesce  = time.Duration(benchEnv("REPLICA_BENCH_COALESCE_MS", 600)) * time.Millisecond
	)

	// Primary: cache-fronted, like plusd serves by default.
	pm := plus.NewMemBackend(0)
	defer pm.Close()
	lat := privilege.TwoLevel()
	psrv := plus.NewCachedServer(plus.NewCachedEngine(plus.NewEngine(pm, lat)))
	pts := httptest.NewServer(psrv)
	defer pts.Close()

	// Seed: `chains` linear provenance chains, deep enough that an
	// uncached lineage recompute costs real work.
	for c := 0; c < chains; c++ {
		var b plus.Batch
		for i := 0; i < seedDepth; i++ {
			b.Objects = append(b.Objects, plus.Object{ID: chainID(c, i), Kind: plus.Data, Name: fmt.Sprintf("chain-%d", c)})
			if i > 0 {
				b.Edges = append(b.Edges, plus.Edge{From: chainID(c, i-1), To: chainID(c, i), Label: "input-to"})
			}
		}
		if _, err := pm.Apply(b); err != nil {
			t.Fatal(err)
		}
	}

	// Continuous ingest: annotate a rotating chain node through the
	// primary's public API at a fixed pace, for the whole measurement —
	// every re-store touches the closure every reader queries (the primary
	// must evict and recompute), while the graph itself stays at its
	// seeded size so per-scenario costs are comparable.
	ingestCtx, stopIngest := context.WithCancel(context.Background())
	defer stopIngest()
	var ingestWrites atomic.Uint64
	go func() {
		c := plusclient.New(pts.URL, plusclient.WithViewer("Protected"))
		tick := time.NewTicker(time.Duration(writeMS) * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-ingestCtx.Done():
				return
			case <-tick.C:
			}
			ch := i % chains
			_, err := c.Batch(ingestCtx, plusclient.BatchRequest{
				Objects: []plus.Object{{
					ID:       chainID(ch, (i/chains)%seedDepth),
					Kind:     plus.Data,
					Name:     fmt.Sprintf("chain-%d", ch),
					Features: map[string]string{"annotated": strconv.Itoa(i)},
				}},
			})
			if err != nil {
				if ingestCtx.Err() == nil {
					t.Errorf("ingest: %v", err)
				}
				return
			}
			ingestWrites.Add(1)
		}
	}()

	report := benchReport{
		Benchmark: "TestFollowerScalingReport",
		Command:   "REPLICA_BENCH_SECONDS=... go test ./internal/replica -run TestFollowerScalingReport -count=1",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	report.Config.Chains = chains
	report.Config.SeedDepth = seedDepth
	report.Config.WriteIntervalMS = writeMS
	report.Config.CoalesceMS = int(coalesce / time.Millisecond)

	// measure runs one scenario: `readers` goroutines spread round-robin
	// over urls, querying full-chain lineage for `seconds`.
	measure := func(name string, urls []string, reps []*Replica) benchScenario {
		sc := benchScenario{Name: name, Followers: len(reps), Readers: readers, DurationSec: float64(seconds)}
		before := ingestWrites.Load()
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second)
		defer cancel()
		var queries, qerrs atomic.Uint64
		var maxLagRev atomic.Uint64
		var maxLagSec atomic.Uint64 // milliseconds, really
		if len(reps) > 0 {
			go func() {
				for ctx.Err() == nil {
					for _, r := range reps {
						h := r.Health()
						if h.LagRevisions > maxLagRev.Load() {
							maxLagRev.Store(h.LagRevisions)
						}
						if ms := uint64(h.LagSeconds * 1000); ms > maxLagSec.Load() {
							maxLagSec.Store(ms)
						}
					}
					time.Sleep(10 * time.Millisecond)
				}
			}()
		}
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := plusclient.New(urls[i%len(urls)], plusclient.WithViewer("Protected"))
				for n := 0; ctx.Err() == nil; n++ {
					_, err := c.Lineage(ctx, plusclient.LineageRequest{
						Start:     chainID(n%chains, 0),
						Direction: "descendants",
					})
					if err != nil {
						if ctx.Err() == nil {
							qerrs.Add(1)
						}
						continue
					}
					queries.Add(1)
				}
			}(i)
		}
		wg.Wait()
		sc.Queries = queries.Load()
		sc.QueryErrors = qerrs.Load()
		sc.QPS = float64(sc.Queries) / sc.DurationSec
		sc.IngestWrites = ingestWrites.Load() - before
		sc.MaxLagRevisions = maxLagRev.Load()
		sc.MaxLagSeconds = float64(maxLagSec.Load()) / 1000
		for _, r := range reps {
			h := r.Health()
			sc.ApplyEvents += h.Applied
			sc.ApplyBatches += h.Batches
		}
		return sc
	}

	// startFollower boots one coalescing read replica with its own
	// cache-fronted read-only serving surface.
	type follower struct {
		rep *Replica
		url string
	}
	startFollower := func(i int) follower {
		fm := plus.NewMemBackend(0)
		t.Cleanup(func() { fm.Close() })
		r, err := New(Config{
			Primary:      pts.URL,
			Backend:      fm,
			Coalesce:     coalesce,
			FlushEvery:   100_000,
			Wait:         2 * time.Second,
			PollInterval: 250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		if err := r.Start(ctx); err != nil {
			t.Fatal(err)
		}
		go func() {
			if err := r.Run(ctx); err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
		}()
		fsrv := plus.NewCachedServer(plus.NewCachedEngine(plus.NewEngine(fm, r.Lattice())),
			plus.WithReadOnly(nil), plus.WithReplicaHealth(r.Health))
		fts := httptest.NewServer(fsrv)
		t.Cleanup(fts.Close)
		return follower{rep: r, url: fts.URL}
	}

	// Scenario 1: every read hits the ingest-burdened primary.
	sc := measure("single-node", []string{pts.URL}, nil)
	report.Scenarios = append(report.Scenarios, sc)
	singleQPS := sc.QPS

	// Scenario 2: one follower takes the reads.
	f0 := startFollower(0)
	waitBenchCaughtUp(t, f0.rep)
	sc = measure("followers-1", []string{f0.url}, []*Replica{f0.rep})
	report.Scenarios = append(report.Scenarios, sc)

	// Scenario 3: three followers share the reads.
	f1, f2 := startFollower(1), startFollower(2)
	waitBenchCaughtUp(t, f1.rep)
	waitBenchCaughtUp(t, f2.rep)
	sc = measure("followers-3",
		[]string{f0.url, f1.url, f2.url},
		[]*Replica{f0.rep, f1.rep, f2.rep})
	report.Scenarios = append(report.Scenarios, sc)
	if singleQPS > 0 {
		report.SpeedupAggregate3x = sc.QPS / singleQPS
	}

	for _, s := range report.Scenarios {
		t.Logf("%-12s followers=%d qps=%.0f (queries=%d errs=%d ingest=%d maxLag=%drev/%.2fs batches=%d)",
			s.Name, s.Followers, s.QPS, s.Queries, s.QueryErrors, s.IngestWrites,
			s.MaxLagRevisions, s.MaxLagSeconds, s.ApplyBatches)
		if s.QueryErrors > 0 {
			t.Errorf("%s: %d query errors", s.Name, s.QueryErrors)
		}
		// Staleness must stay bounded: the coalesce window plus apply and
		// polling slack, far under any runaway threshold.
		if s.MaxLagSeconds > 5 {
			t.Errorf("%s: lag reached %.2fs; replication is not keeping up", s.Name, s.MaxLagSeconds)
		}
	}
	t.Logf("aggregate speedup (3 followers vs single node): %.2fx", report.SpeedupAggregate3x)

	if os.Getenv("BENCH_WRITE") == "1" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../../BENCH_replica.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func chainID(chain, i int) string {
	return fmt.Sprintf("chain-%d-%d", chain, i)
}

// waitBenchCaughtUp waits until the follower has fully caught up with
// the (still-moving) primary — waitCaughtUp alone would return before
// the follower has observed fresh ingest.
func waitBenchCaughtUp(t *testing.T, r *Replica) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h := r.Health()
		if h.PrimaryRev > 0 && h.LagRevisions == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/internal/replica"
	"repro/internal/workload"
)

// TestCostLedger is tier-1's clock-free account of what each serving layer
// costs per unit of work. Every row runs one operation at a size n and at
// 4n through the layer's exported API and records, per unit, the
// allocations and bytes of its first (cold) run and of its steady (warm)
// runs, beside the layer's own operation counter where it has one. Each
// row asserts a ceiling per unit and a bound on growth from n to 4n; no
// row reads a clock.
//
// Three free lists keep spares between calls: graph.Release's graphs, the
// reach kernel's scratch and the lineage body scratch. Before its first
// lineage row the ledger fills the last two to the largest size any row
// asks of them, and it empties the first before every cold run, so a cold
// figure does not depend on what ran before it.
//
// go test -v prints the ledger as tables per layer. A table headed "the
// same every run" prints the same figures in every run (CI compares five);
// a row whose figures follow a random seed, a collection or a clock prints
// in its layer's other table, which names the cause. Every row asserts
// its bounds in every run either way.
func TestCostLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	// The first collection starts the runtime's mark workers; a second
	// runs the finalizers of whatever an earlier run left, so neither
	// allocates inside a measurement.
	liveHeap()
	l := &ledger{top: t, stores: map[workload.LargeConfig]*plus.MemBackend{}}
	tables := map[string]*strings.Builder{}
	var heads []string
	for _, row := range ledgerRows() {
		var at [2]ledgerCost
		ran := false
		t.Run(row.layer+"/"+row.op, func(t *testing.T) {
			l.t = t
			at, ran = row.run(l, row.n), true
			row.check(t, at)
		})
		if !ran {
			continue
		}
		head := row.layer + " (per unit; the same every run)"
		if row.varies != "" {
			head = row.layer + " (per unit; varies by run: " + row.varies + ")"
		}
		sb := tables[head]
		if sb == nil {
			sb = &strings.Builder{}
			tables[head] = sb
			heads = append(heads, head)
		}
		for i, c := range at {
			fmt.Fprintf(sb, "%s\t%s\t%d\t%.2f\t%.2f\t%.0f\t%.0f\t%s\n", row.op, row.unit, row.n<<(2*i),
				c.cold.allocs, c.warm.allocs, c.cold.bytes, c.warm.bytes, c.counter)
		}
	}
	for _, head := range heads {
		var out strings.Builder
		tw := tabwriter.NewWriter(&out, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "operation\tunit\tsize\tallocs cold\tallocs warm\tbytes cold\tbytes warm\tcounter\n%s", tables[head])
		tw.Flush()
		t.Logf("cost ledger, %s:\n%s", head, out.String())
	}
}

// ledgerRow is one line pair of the ledger.
type ledgerRow struct {
	layer, op, unit string
	// varies says why the row's figures differ from run to run; empty
	// for a row whose figures are the same every run.
	varies string
	// n is the smaller size; run measures the operation at n and at 4n.
	n     int
	run   func(l *ledger, n int) [2]ledgerCost
	check func(t *testing.T, at [2]ledgerCost)
}

// ledgerCost is what a row measured at one size, per unit of work.
type ledgerCost struct {
	cold, warm sample
	// ops is the figure beyond allocations and bytes that the row's check
	// reads; counter renders the row's counters for the table.
	ops     float64
	counter string
}

// sample is the allocations and bytes of one measured stretch, or of one
// unit of it after per. Rows that report retained heap put live bytes in
// bytes.
type sample struct{ allocs, bytes float64 }

func (s sample) per(units int) sample {
	return sample{s.allocs / float64(units), s.bytes / float64(units)}
}

func (s sample) plus(o sample) sample { return sample{s.allocs + o.allocs, s.bytes + o.bytes} }

func (s sample) minus(o sample) sample { return sample{s.allocs - o.allocs, s.bytes - o.bytes} }

// measure runs f on one processor, as testing.AllocsPerRun does, with no
// collection starting inside it (a cycle would empty the sync.Pools and
// park goroutines mid-stretch), and returns what it allocated
// (runtime.MemStats Mallocs and TotalAlloc).
func measure(f func()) sample {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return sample{float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)}
}

// coldWarm measures f's first call and then the mean of k more.
func coldWarm(k int, f func()) (cold, warm sample) {
	cold = measure(f)
	warm = measure(func() {
		for i := 0; i < k; i++ {
			f()
		}
	})
	return cold, warm.per(k)
}

// liveHeap collects and returns the bytes still reachable (HeapAlloc).
// Two cycles empty the sync.Pools. HeapInuse is never read: it follows
// where the last collection left its spans, not what the store keeps.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// drainSpares takes every graph graph.Release has handed back (its free
// list holds two per processor), so the next lineage miss or view build
// starts with none.
func drainSpares() {
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		graph.New()
	}
}

// both runs one size's measurement at n and at 4n.
func both(n int, at func(n int) ledgerCost) [2]ledgerCost { return [2]ledgerCost{at(n), at(4 * n)} }

// growth is the ratio of a warm figure at 4n to the same figure at n.
func growth(at [2]ledgerCost, f func(sample) float64) float64 { return f(at[1].warm) / f(at[0].warm) }

func allocsOf(s sample) float64 { return s.allocs }
func bytesOf(s sample) float64  { return s.bytes }

// ledger carries the running row's test, the ledger's own, and the
// read-only stores rows share, which live as long as the ledger.
type ledger struct {
	t, top *testing.T
	stores map[workload.LargeConfig]*plus.MemBackend
	primed bool
}

// large returns a mem backend holding cfg's workload.GenerateLarge graph,
// loaded once per ledger run: rows that use it only read it.
func (l *ledger) large(cfg workload.LargeConfig) *plus.MemBackend {
	if b, ok := l.stores[cfg]; ok {
		return b
	}
	b := l.load(cfg, nil)
	l.top.Cleanup(func() { b.Close() })
	l.stores[cfg] = b
	return b
}

// fresh is a store of its own for the running row, which may write it;
// it is closed, and its heap let go, when the row ends.
func (l *ledger) fresh(cfg workload.LargeConfig, edit func(*plus.Batch)) *plus.MemBackend {
	b := l.load(cfg, edit)
	l.t.Cleanup(func() { b.Close() })
	return b
}

// load writes cfg's graph into a new mem backend, each batch passed
// through edit when it is not nil.
func (l *ledger) load(cfg workload.LargeConfig, edit func(*plus.Batch)) *plus.MemBackend {
	b := plus.NewMemBackend(0)
	err := workload.GenerateLarge(cfg, func(batch plus.Batch) error {
		if edit != nil {
			edit(&batch)
		}
		_, err := b.Apply(batch)
		return err
	})
	if err != nil {
		l.t.Fatal(err)
	}
	return b
}

// prime grows the reach kernel's scratch and the body scratch, once, to
// the largest answer the ledger serves: depth-5 misses over the larger
// lineage store.
func (l *ledger) prime() {
	if l.primed {
		return
	}
	l.primed = true
	en := plus.NewEngine(l.large(plusbenchLarge(4*lineageNodes)), privilege.TwoLevel())
	for i := 0; i < 4; i++ {
		if _, err := plus.NewCachedEngine(en).LineageBody(context.Background(), lineageRequest(4*lineageNodes, i, 5)); err != nil {
			l.t.Fatal(err)
		}
	}
}

func (l *ledger) apply(b plus.Backend, batch plus.Batch) {
	l.t.Helper()
	if _, err := b.Apply(batch); err != nil {
		l.t.Fatal(err)
	}
}

func (l *ledger) snapshot(b plus.Backend) *plus.Snapshot {
	l.t.Helper()
	sn, err := b.Snapshot()
	if err != nil {
		l.t.Fatal(err)
	}
	return sn
}

// plusbenchLarge is the graph cmd/plusbench serves: five edges per node,
// one node in ten protected with a surrogate.
func plusbenchLarge(n int) workload.LargeConfig {
	return workload.LargeConfig{Nodes: n, EdgesPerNode: 5, ProtectEvery: 10, BatchSize: 1024, Seed: 1}
}

// indexLarge is the graph of plusql's point-query benchmarks: defaults, so
// one node in a thousand is protected and a name is shared by about 20.
func indexLarge(n int) workload.LargeConfig { return workload.LargeConfig{Nodes: n, Seed: 11} }

// namedLarge is a graph of n objects, one edge each, sharing n/5 names.
func namedLarge(n int) workload.LargeConfig {
	return workload.LargeConfig{Nodes: n, EdgesPerNode: 1, NamePool: n / 5, Seed: 3, BatchSize: 1024}
}

const lineageNodes = 4000

// lineageRequest asks for the depth-d ancestry, as Public in surrogate
// mode, of the i-th object from the top of a plusbench graph of n nodes.
func lineageRequest(n, i, depth int) plus.Request {
	return plus.Request{Start: workload.LargeNodeID(n - 2 - i), Direction: graph.Backward, Depth: depth,
		Viewer: privilege.Public, Mode: plus.ModeSurrogate}
}

const indexNodes = 2500

// Why a row's figures differ between runs.
const (
	byCollection = "live heap after a collection moves by a few bytes"
	byBucketSeed = "each store seeds its bucket hash at random"
	byMapSeed    = "maps past 1 024 entries split by their random seed"
	byTiming     = "each lineage body carries its miss's timing"
)

// churnBound is what a re-store may keep live: 2 MB over 150 000 of them.
const churnBound = float64(2<<20) / 150_000

func ledgerRows() []ledgerRow {
	// Rows that collect run before the rows that keep large stores live,
	// so their collections stay small.
	return []ledgerRow{
		{"graph", "Graph.Edges, unchanged graph", "call", "", 250, edgesCost, func(t *testing.T, at [2]ledgerCost) {
			// Edges orders each successor list in one scratch buffer.
			if a := at[0].warm.allocs; a != at[1].warm.allocs || a > 4 {
				t.Errorf("Edges: %.0f allocations at n, %.0f at 4n; want the same, at most 4", a, at[1].warm.allocs)
			}
		}},
		{"store", "live bytes per stored object, no features", "object", byCollection, 8192, retainedHeap(nil), checkRetained(482)},
		{"store", "live bytes per stored object, 3 features", "object", byCollection, 8192, retainedHeap(threeFeatures), checkRetained(846)},
		{"store", "live bytes per re-store of one object", "re-store", byCollection, 4096, restoreChurn, func(t *testing.T, at [2]ledgerCost) {
			// A store that keeps every string it was handed keeps ≈100 B
			// per re-store; the change feed's horizon bounds this one.
			if b := at[1].warm.bytes; b > churnBound {
				t.Errorf("a re-store with a fresh feature value keeps %.1f B live from n to 4n, want at most %.1f", b, churnBound)
			}
		}},
		{"store", "one-object Apply and Snapshot, mem", "round", byBucketSeed, 5000, snapshotCost(false), checkSnapshotCost},
		{"store", "one-object Apply and Snapshot, log", "round", byBucketSeed, 5000, snapshotCost(true), checkSnapshotCost},
		{"store", "named PutObject after Snapshot", "write", byBucketSeed, 2500, namedWriteCost, func(t *testing.T, at [2]ledgerCost) {
			// namedWriteCost checks the bucket copies of each write.
			if a := at[0].warm.allocs; a > 32 {
				t.Errorf("a named write allocates %.1f times, want at most 32", a)
			}
			if g := growth(at, allocsOf); g > 1.5 {
				t.Errorf("a named write's allocations grew %.2f× from n to 4n, want at most 1.5×", g)
			}
		}},
		{"store", "named batch and Snapshot, over unnamed", "object", byBucketSeed, 2500, namedBatchCost, func(t *testing.T, at [2]ledgerCost) {
			// A name's posting is one more bucket to copy, not postings
			// rebuilt over the store's names.
			for i, c := range at {
				if c.warm.allocs > 16 {
					t.Errorf("size %d: a named object allocates %.1f more than an unnamed one, want at most 16", i, c.warm.allocs)
				}
			}
			if g := growth(at, allocsOf); g > 1.5 {
				t.Errorf("the named batch's extra allocations grew %.2f× from n to 4n, want at most 1.5×", g)
			}
		}},
		{"replica", "follower catch-up over HTTP", "change", byBucketSeed, 1000, followerApplyCost, func(t *testing.T, at [2]ledgerCost) {
			if a := at[0].warm.allocs; a > 40 {
				t.Errorf("a follower allocates %.1f times per applied change, want at most 40", a)
			}
			if g := growth(at, allocsOf); g > 1.25 {
				t.Errorf("a follower's allocations per applied change grew %.2f× from n to 4n, want at most 1.25×", g)
			}
		}},
		{"figure 10", "surrogate protection", "answer", byBucketSeed, 150, figure10Cost, func(t *testing.T, at [2]ledgerCost) {
			// Protection is subsumed by creating the graph and reading it
			// back: the paper's Figure 10, counted in bytes.
			for i, c := range at {
				if c.ops <= 10 {
					t.Errorf("size %d: store write + reopen allocate only %.1f× what protection does, want more than 10×", i, c.ops)
				}
			}
		}},
		{"lineage", "served miss, depth 3", "closure node", byTiming, lineageNodes, missCost(3), checkMiss},
		{"lineage", "served miss, depth 5", "closure node", byMapSeed, lineageNodes, missCost(5), func(t *testing.T, at [2]ledgerCost) {
			checkMiss(t, at)
			for _, c := range at {
				if c.ops > 6 {
					t.Errorf("a depth-5 miss allocates %.1f× its body, want at most 6×", c.ops)
				}
			}
		}},
		{"lineage", "cache hit, depth 3 and 5", "hit", "", lineageNodes, hitCost, func(t *testing.T, at [2]ledgerCost) {
			// A hit returns the body its miss encoded.
			if a := at[0].warm.allocs; a != at[1].warm.allocs || a > 2 {
				t.Errorf("a hit allocates %.0f times at n, %.0f at 4n; want the same, at most 2", a, at[1].warm.allocs)
			}
		}},
		{"lineage", "decode depth-5 answer", "node", "", lineageNodes, decodeCost, func(t *testing.T, at [2]ledgerCost) {
			for _, c := range at {
				if c.warm.allocs > 4 {
					t.Errorf("decoding takes %.2f allocations per node, want at most 4", c.warm.allocs)
				}
			}
		}},
		{"store", "Snapshot.FindByName", "call", "", indexNodes, findByNameCost, func(t *testing.T, at [2]ledgerCost) {
			if a := at[0].warm.allocs; a != at[1].warm.allocs || a > 2 {
				t.Errorf("FindByName: %.0f allocations at n, %.0f at 4n; want the same, at most 2", a, at[1].warm.allocs)
			}
		}},
		{"plusql", "indexed name lookup", "row", "", indexNodes, indexedLookupCost, func(t *testing.T, at [2]ledgerCost) {
			// indexedLookupCost checks what the planned and naive runs examine.
			if a := at[0].warm.allocs; a > 8 {
				t.Errorf("an indexed lookup allocates %.2f times per row, want at most 8", a)
			}
			if g := growth(at, allocsOf); g > 1.25 {
				t.Errorf("an indexed lookup's allocations per row grew %.2f× from n to 4n, want at most 1.25×", g)
			}
		}},
		{"plusql", "View.Advance, one new node", "advance", "", 2500, advanceCost, func(t *testing.T, at [2]ledgerCost) {
			// Cloning the account, as Advance once did, follows the graph.
			if g := growth(at, bytesOf); g > 1.25 || at[0].warm.bytes > 16<<10 {
				t.Errorf("an advance allocates %.0f B at n and %.2f× that at 4n, want at most 16 KB and 1.25×", at[0].warm.bytes, g)
			}
		}},
		{"plusql", "View.Advance vs NewView", "advance", byMapSeed, 3200, advanceVsRebuildCost, func(t *testing.T, at [2]ledgerCost) {
			for i, c := range at {
				if c.ops < 100 {
					t.Errorf("size %d: a rebuild allocates only %.0f× the bytes of an advance, want at least 100×", i, c.ops)
				}
			}
		}},
	}
}

// edgesCost builds a plusbench-shaped graph and counts Edges.
func edgesCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		g := ledgerGraph(n)
		cold, warm := coldWarm(10, func() { g.Edges() })
		return ledgerCost{cold: cold, warm: warm, counter: strconv.Itoa(g.NumEdges()) + " edges"}
	})
}

// ledgerGraph is a graph of plusbench's shape: n ranked nodes with a name
// feature, each wired by up to five edges from earlier ranks.
func ledgerGraph(n int) *graph.Graph {
	r := rand.New(rand.NewSource(2))
	g := graph.New()
	for i := 0; i < n; i++ {
		id := graph.NodeID(workload.LargeNodeID(i))
		g.AddNode(graph.Node{ID: id, Features: graph.Features{"name": workload.LargeName(r.Intn(max(n/20, 1)))}})
		for e := 0; i > 0 && e < 5; e++ {
			if from := graph.NodeID(workload.LargeNodeID(r.Intn(i))); !g.HasEdge(from, id) {
				g.MustAddEdge(from, id)
			}
		}
	}
	return g
}

// snapshotCost measures one small write and the snapshot after it over a
// store of n chained objects, on the log or the mem backend: the bytes of
// a one-object round, and the records a round copies when its one object
// hangs under two random ones.
func snapshotCost(durable bool) func(l *ledger, n int) [2]ledgerCost {
	return func(l *ledger, n int) [2]ledgerCost {
		return both(n, func(n int) ledgerCost {
			var b plus.Backend = plus.NewMemBackend(0)
			if durable {
				var err error
				if b, err = plus.Open(filepath.Join(l.t.TempDir(), "ledger.log"), plus.Options{}); err != nil {
					l.t.Fatal(err)
				}
			}
			defer b.Close()
			id := func(i int) string { return fmt.Sprintf("o%06d", i) }
			for lo := 0; lo < n; lo += 1000 {
				var batch plus.Batch
				for i := lo; i < lo+1000 && i < n; i++ {
					batch.Objects = append(batch.Objects, plus.Object{ID: id(i), Kind: plus.Data, Name: "bulk"})
					if i > 0 {
						batch.Edges = append(batch.Edges, plus.Edge{From: id(i - 1), To: id(i), Label: "next"})
					}
					if i >= 7 {
						batch.Edges = append(batch.Edges, plus.Edge{From: id(i - 7), To: id(i), Label: "skip"})
					}
				}
				l.apply(b, batch)
			}
			const rounds = 200
			ones, children := make([]plus.Batch, rounds+1), make([]plus.Batch, rounds)
			rng := rand.New(rand.NewSource(int64(n)))
			for i := range ones {
				ones[i] = plus.Batch{Objects: []plus.Object{{ID: fmt.Sprintf("one%d", i), Kind: plus.Data, Name: "one"}}}
			}
			for i := range children {
				child := fmt.Sprintf("child%d", i)
				children[i] = plus.Batch{Objects: []plus.Object{{ID: child, Kind: plus.Data, Name: "child"}},
					Edges: []plus.Edge{{From: id(rng.Intn(n)), To: child}, {From: id(rng.Intn(n)), To: child}}}
			}
			round := func(batch plus.Batch) {
				l.apply(b, batch)
				l.snapshot(b)
			}
			cold := measure(func() { round(ones[rounds]) })
			warm := measure(func() {
				for _, batch := range ones[:rounds] {
					round(batch)
				}
			})
			copied := b.StoreStats().RecordsCopied
			for _, batch := range children {
				round(batch)
			}
			perRound := float64(b.StoreStats().RecordsCopied-copied) / rounds
			return ledgerCost{cold: cold, warm: warm.per(rounds), ops: perRound, counter: fmt.Sprintf("%.2f records copied", perRound)}
		})
	}
}

func checkSnapshotCost(t *testing.T, at [2]ledgerCost) {
	// A snapshot copies the table's 32 KB of bucket pointers and no record.
	if b := at[0].warm.bytes; b > 48<<10 {
		t.Errorf("Apply+Snapshot allocates %.0f B per round, want at most 48 KB", b)
	}
	if g := growth(at, bytesOf); g > 1.25 {
		t.Errorf("Apply+Snapshot allocates %.2f× as many bytes at 4n objects as at n: it grows with the store", g)
	}
	for _, c := range at {
		if c.ops > 100 {
			t.Errorf("a small batch + Snapshot copies %.1f records, want at most 100", c.ops)
		}
	}
}

// namedWriteCost writes named objects one at a time, each after a
// snapshot: a new object and a rename. A name's posting lives in its
// name's bucket of the record table, copied on write like any other, so a
// new object copies at most two buckets (its id's and its name's) and a
// rename at most three (the old name's too).
func namedWriteCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		b := l.fresh(namedLarge(n), nil)
		const writes = 50
		var cold, warm sample
		var maxNew, maxRename uint64
		for i := 0; i < writes; i++ {
			l.snapshot(b)
			copies := b.StoreStats().BucketCopies
			o := plus.Object{ID: fmt.Sprintf("one%d", i), Kind: plus.Data, Name: workload.LargeName(i)}
			s := measure(func() {
				if err := b.PutObject(o); err != nil {
					l.t.Fatal(err)
				}
			})
			if i == 0 {
				cold = s
			} else {
				warm = warm.plus(s)
			}
			maxNew = max(maxNew, b.StoreStats().BucketCopies-copies)
			l.snapshot(b)
			copies = b.StoreStats().BucketCopies
			if err := b.PutObject(plus.Object{ID: workload.LargeNodeID(i), Kind: plus.Data, Name: workload.LargeName(n + i)}); err != nil {
				l.t.Fatal(err)
			}
			maxRename = max(maxRename, b.StoreStats().BucketCopies-copies)
		}
		if maxNew > 2 || maxRename > 3 {
			l.t.Errorf("%d objects: after a snapshot a new named object copied up to %d buckets and a rename %d, want at most 2 and 3",
				n, maxNew, maxRename)
		}
		return ledgerCost{cold: cold, warm: warm.per(writes - 1),
			counter: fmt.Sprintf("bucket copies ≤ %d new, ≤ %d rename", maxNew, maxRename)}
	})
}

// namedBatchCost applies 256-object batches, each followed by a snapshot,
// to a store of named objects and to the same store unnamed, and reports
// what a named object costs over an unnamed one.
func namedBatchCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		const size, runs = 256, 10
		cost := func(named bool) (cold, warm sample) {
			var unname func(*plus.Batch)
			if !named {
				unname = func(batch *plus.Batch) {
					for i := range batch.Objects {
						batch.Objects[i].Name = ""
					}
				}
			}
			b := l.fresh(namedLarge(n), unname)
			batches := make([]plus.Batch, runs+1)
			for r := range batches {
				for i := 0; i < size; i++ {
					o := plus.Object{ID: fmt.Sprintf("r%d-%d", r, i), Kind: plus.Data}
					if named {
						o.Name = workload.LargeName((r*size + i) % (n / 5))
					}
					batches[r].Objects = append(batches[r].Objects, o)
				}
			}
			round := func(batch plus.Batch) {
				l.apply(b, batch)
				l.snapshot(b)
			}
			cold = measure(func() { round(batches[0]) })
			warm = measure(func() {
				for _, batch := range batches[1:] {
					round(batch)
				}
			}).per(runs)
			return cold, warm
		}
		namedCold, namedWarm := cost(true)
		unnamedCold, unnamedWarm := cost(false)
		return ledgerCost{cold: namedCold.minus(unnamedCold).per(size), warm: namedWarm.minus(unnamedWarm).per(size),
			counter: fmt.Sprintf("%.0f allocs named, %.0f unnamed per batch", namedWarm.allocs, unnamedWarm.allocs)}
	})
}

// findByNameCost resolves one name's posting over the point-query graph.
func findByNameCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		sn := l.snapshot(l.large(indexLarge(n)))
		name := workload.LargeName(7)
		var ids []string
		cold, warm := coldWarm(100, func() { ids = sn.FindByName(name) })
		return ledgerCost{cold: cold, warm: warm, counter: fmt.Sprintf("%d ids", len(ids))}
	})
}

func threeFeatures(i int) map[string]string {
	return map[string]string{"owner": workload.LargeOwner(i % 97), "stage": "s" + strconv.Itoa(i%7), "batch": "b" + strconv.Itoa(i)}
}

// retainedHeap loads n and then 4n objects into a mem backend in
// 1 024-object batches, collecting after each batch as a serving store's
// heap would be, and reports per object the allocations of the load and
// the live heap it left: from 0 to n at n, from n to 4n at 4n. feats gives
// object i its features (nil: none).
func retainedHeap(feats func(i int) map[string]string) func(l *ledger, n int) [2]ledgerCost {
	return func(l *ledger, n int) [2]ledgerCost {
		b := plus.NewMemBackend(0)
		defer b.Close()
		load := func(from, to int) ledgerCost {
			live := liveHeap()
			var batch plus.Batch
			s := measure(func() {
				for i := from; i < to; i++ {
					o := plus.Object{ID: workload.LargeNodeID(i), Kind: plus.Data, Name: workload.LargeName(i % 1000)}
					if feats != nil {
						o.Features = feats(i)
					}
					batch.Objects = append(batch.Objects, o)
					if len(batch.Objects) == 1024 || i == to-1 {
						l.apply(b, batch)
						batch = plus.Batch{}
						runtime.GC()
					}
				}
			})
			s.bytes = float64(liveHeap() - live)
			s = s.per(to - from)
			return ledgerCost{cold: s, warm: s}
		}
		return [2]ledgerCost{load(0, n), load(n, 4*n)}
	}
}

// checkRetained holds live bytes per stored object from n to 4n to bound,
// and to no more than the first n objects cost.
func checkRetained(bound float64) func(t *testing.T, at [2]ledgerCost) {
	return func(t *testing.T, at [2]ledgerCost) {
		if b := at[1].warm.bytes; b > bound || b > at[0].warm.bytes {
			t.Errorf("%.0f B live per stored object from n to 4n (%.0f B up to n), want at most %.0f and no more than up to n",
				b, at[0].warm.bytes, bound)
		}
	}
}

// restoreChurn re-stores one object n and then 4n times, each with a
// feature value never seen before, under a change-feed horizon of 1 024,
// and reports per re-store its allocations and the live heap it left.
func restoreChurn(l *ledger, n int) [2]ledgerCost {
	b := plus.NewMemBackend(0)
	defer b.Close()
	b.SetChangeHorizon(1024)
	restore := func(from, to int) ledgerCost {
		live := liveHeap()
		s := measure(func() {
			for i := from; i < to; i++ {
				o := plus.Object{ID: "churn", Kind: plus.Data, Name: "churn", Features: map[string]string{"seq": strconv.Itoa(i)}}
				if err := b.PutObject(o); err != nil {
					l.t.Fatal(err)
				}
			}
		})
		s.bytes = float64(liveHeap() - live)
		s = s.per(to - from)
		return ledgerCost{cold: s, warm: s}
	}
	return [2]ledgerCost{restore(0, n), restore(n, 4*n)}
}

// missCost serves depth-d lineage misses over plusbench's graph, each on
// a cache that has not seen the request: CachedEngine.LineageBody's whole
// miss, fetch to encoded body and the cache's copy. Cold is the first
// miss after the graph spares are emptied; warm is 24 misses on distinct
// starts after four have filled them. Units are the closure nodes the
// cache records.
func missCost(depth int) func(l *ledger, n int) [2]ledgerCost {
	return func(l *ledger, n int) [2]ledgerCost {
		return both(n, func(n int) ledgerCost {
			en := plus.NewEngine(l.large(plusbenchLarge(n)), privilege.TwoLevel())
			const starts = 24
			serve := func(ce *plus.CachedEngine, from, to int) (bodies int) {
				for i := from; i < to; i++ {
					body, err := ce.LineageBody(context.Background(), lineageRequest(n, i, depth))
					if err != nil {
						l.t.Fatal(err)
					}
					bodies += len(body)
				}
				return bodies
			}
			l.prime()
			drainSpares()
			ce := plus.NewCachedEngine(en)
			cold := measure(func() { serve(ce, 0, 1) }).per(ce.Stats().ClosureNodes)
			serve(plus.NewCachedEngine(en), 0, 4)
			ce = plus.NewCachedEngine(en)
			var bodies int
			warm := measure(func() { bodies = serve(ce, 0, starts) })
			st := ce.Stats()
			if st.Misses != starts || st.Hits != 0 {
				l.t.Fatalf("stats %+v, want %d misses and no hit", st, starts)
			}
			ratio := warm.bytes / float64(bodies)
			return ledgerCost{cold: cold, warm: warm.per(st.ClosureNodes), ops: ratio,
				counter: fmt.Sprintf("%.2f× body, %d closure nodes", ratio, st.ClosureNodes)}
		})
	}
}

func checkMiss(t *testing.T, at [2]ledgerCost) {
	// Each node's feature map is the one the store shaped, G' is derived
	// from G's slots, the body is appended without reflection into reused
	// scratch and kept as one exact-size copy.
	for i, c := range at {
		if c.warm.allocs > 8 || c.warm.bytes > 1382 {
			t.Errorf("size %d: a miss allocates %.2f times and %.0f B per closure node, want at most 8 and 1 382",
				i, c.warm.allocs, c.warm.bytes)
		}
	}
	if g := growth(at, bytesOf); g > 1.25 {
		t.Errorf("a miss's bytes per closure node grew %.2f× from n to 4n, want at most 1.25×", g)
	}
}

// hitCost serves cached depth-3 and depth-5 answers: a hit is a copy of
// the body its miss encoded, so both depths must allocate the same.
func hitCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		ce := plus.NewCachedEngine(plus.NewEngine(l.large(plusbenchLarge(n)), privilege.TwoLevel()))
		var costs [2]ledgerCost
		for i, depth := range []int{3, 5} {
			req := lineageRequest(n, 0, depth)
			miss, err := ce.LineageBody(context.Background(), req)
			if err != nil {
				l.t.Fatal(err)
			}
			hit := func() {
				if body, err := ce.LineageBody(context.Background(), req); err != nil || len(body) != len(miss) {
					l.t.Fatalf("hit: %d bytes, err %v; the miss wrote %d", len(body), err, len(miss))
				}
			}
			cold, warm := coldWarm(100, hit)
			costs[i] = ledgerCost{cold: cold, warm: warm, counter: "101 hits"}
		}
		if costs[0].warm.allocs != costs[1].warm.allocs {
			l.t.Errorf("%d nodes: a hit allocates %.0f times at depth 3 and %.0f at depth 5, want the same",
				n, costs[0].warm.allocs, costs[1].warm.allocs)
		}
		if st := ce.Stats(); st.Misses != 2 || st.Hits != 2*101 {
			l.t.Errorf("stats %+v, want 2 misses and every later ask a hit", st)
		}
		return costs[1]
	})
}

// decodeCost decodes a depth-5 answer the way the SDK does. The answer's
// timing block, the one part that differs by run, is zeroed first.
func decodeCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		ce := plus.NewCachedEngine(plus.NewEngine(l.large(plusbenchLarge(n)), privilege.TwoLevel()))
		body, err := ce.LineageBody(context.Background(), lineageRequest(n, 0, 5))
		if err != nil {
			l.t.Fatal(err)
		}
		var answer plus.LineageResponse
		if err := answer.UnmarshalJSON(body); err != nil {
			l.t.Fatal(err)
		}
		answer.Timing = plus.LineageTiming{}
		if body, err = json.Marshal(answer); err != nil {
			l.t.Fatal(err)
		}
		nodes := 0
		decode := func() {
			var resp plus.LineageResponse
			if err := resp.UnmarshalJSON(body); err != nil {
				l.t.Fatal(err)
			}
			nodes = len(resp.Nodes)
		}
		cold, warm := coldWarm(20, decode)
		if nodes < 500 || len(answer.Edges) < 2*nodes {
			l.t.Fatalf("an answer of %d nodes and %d edges: not the shape this row is sized for", nodes, len(answer.Edges))
		}
		return ledgerCost{cold: cold.per(nodes), warm: warm.per(nodes),
			counter: fmt.Sprintf("%d nodes, %d KB body", nodes, len(body)>>10)}
	})
}

// advanceCost advances a Public view over the point-query graph by
// one-object, one-edge writes under one parent, and counts Advance alone.
func advanceCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		b := l.fresh(indexLarge(n), nil)
		drainSpares()
		v, err := plusql.NewView(l.snapshot(b), privilege.TwoLevel(), privilege.Public, plus.ModeSurrogate)
		if err != nil {
			l.t.Fatal(err)
		}
		advance := func(i int) (sample, int) {
			id := fmt.Sprintf("added-%d", i)
			l.apply(b, plus.Batch{Objects: []plus.Object{{ID: id, Kind: plus.Data, Name: "added"}},
				Edges: []plus.Edge{{From: workload.LargeNodeID(n / 2), To: id, Label: "input-to"}}})
			sn := l.snapshot(b)
			var info plusql.AdvanceInfo
			ok := false
			s := measure(func() { _, info, ok = v.Advance(sn) })
			if !ok || info.AccountRebuilt {
				l.t.Fatalf("advance: ok=%v info=%+v, want a localised advance", ok, info)
			}
			return s, info.Walked
		}
		cold, _ := advance(0)
		const advances = 20
		var warm sample
		walked := 0
		for i := 1; i <= advances; i++ {
			s, w := advance(i)
			warm, walked = warm.plus(s), walked+w
		}
		return ledgerCost{cold: cold, warm: warm.per(advances), counter: fmt.Sprintf("%.1f walk visits", float64(walked)/advances)}
	})
}

// advanceVsRebuildCost builds a Public view over a write-heavy mix's graph
// and then advances it over 100 one-write deltas, each a new object under
// a random one, one in ten of them protected with a surrogate. Its counter
// is how many times the bytes of an advance a NewView of the same store
// allocates.
func advanceVsRebuildCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		b := mixedBackend(l, n)
		sn := l.snapshot(b)
		var v *plusql.View
		drainSpares()
		rebuild := measure(func() {
			var err error
			if v, err = plusql.NewView(sn, privilege.TwoLevel(), privilege.Public, plus.ModeSurrogate); err != nil {
				l.t.Fatal(err)
			}
		})
		rng := rand.New(rand.NewSource(1))
		advance := func(i int) sample {
			id := fmt.Sprintf("w%d", i)
			batch := plus.Batch{Objects: []plus.Object{{ID: id, Kind: plus.Data, Name: id}},
				Edges: []plus.Edge{{From: fmt.Sprintf("n%d", rng.Intn(n)), To: id, Label: "input-to"}}}
			if i%10 == 5 {
				batch.Objects[0].Lowest, batch.Objects[0].Protect = "Protected", "surrogate"
				batch.Surrogates = []plus.SurrogateSpec{{ForID: id, ID: id + "~", Name: "anon", InfoScore: 0.5}}
			}
			l.apply(b, batch)
			sn := l.snapshot(b)
			ok := false
			s := measure(func() { _, _, ok = v.Advance(sn) })
			if !ok {
				l.t.Fatalf("advance %d refused", i)
			}
			return s
		}
		cold := advance(0)
		const advances = 100
		var warm sample
		for i := 1; i <= advances; i++ {
			warm = warm.plus(advance(i))
		}
		warm = warm.per(advances)
		ratio := rebuild.bytes / warm.bytes
		return ledgerCost{cold: cold, warm: warm, ops: ratio,
			counter: fmt.Sprintf("NewView %.2f MB, %.0f× an advance", rebuild.bytes/(1<<20), ratio)}
	})
}

// mixedBackend is a layered provenance DAG of n objects, one in three an
// invocation, with a protected minority (one in ten, with surrogates)
// threaded through public chains by two edges per object: the shape whose
// protected views are expensive to rebuild.
func mixedBackend(l *ledger, n int) plus.Backend {
	b := plus.NewMemBackend(0)
	l.t.Cleanup(func() { b.Close() })
	rng := rand.New(rand.NewSource(42))
	var batch plus.Batch
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		o := plus.Object{ID: id, Kind: plus.Data, Name: id}
		if i%3 == 0 {
			o.Kind = plus.Invocation
		}
		if i%10 == 5 {
			o.Lowest, o.Protect = "Protected", "surrogate"
			batch.Surrogates = append(batch.Surrogates, plus.SurrogateSpec{ForID: id, ID: id + "~", Name: "anon", InfoScore: 0.5})
		}
		batch.Objects = append(batch.Objects, o)
		from := map[string]bool{}
		for e := 0; e < 2 && i > 0; e++ {
			if f := fmt.Sprintf("n%d", rng.Intn(i)); !from[f] {
				from[f] = true
				batch.Edges = append(batch.Edges, plus.Edge{From: f, To: id, Label: "input-to"})
			}
		}
		if batch.Len() >= 128 || i == n-1 {
			l.apply(b, batch)
			batch = plus.Batch{}
		}
	}
	return b
}

// indexedLookupCost answers a point name query over the point-query
// graph, planned and naive. The planned run must examine exactly the rows
// it returns, and the naive scan every node.
func indexedLookupCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		e := plusql.NewEngine(l.large(indexLarge(n)), privilege.TwoLevel())
		query := func(naive bool) *plusql.ResultSet {
			rs, err := e.Query(`name(X, "name00007")`, plusql.Options{Naive: naive})
			if err != nil {
				l.t.Fatal(err)
			}
			return rs
		}
		if _, err := e.Query(`name(X, "none")`, plusql.Options{}); err != nil { // builds the view
			l.t.Fatal(err)
		}
		var rs *plusql.ResultSet
		cold, warm := coldWarm(20, func() { rs = query(false) })
		rows, scan := len(rs.Rows), query(true)
		if rs.Stats.Examined != rows || scan.Stats.Examined != n || len(scan.Rows) != rows {
			l.t.Errorf("%d nodes: the planned query examined %d for %d rows and the scan %d for %d; want the rows and every node",
				n, rs.Stats.Examined, rows, scan.Stats.Examined, len(scan.Rows))
		}
		return ledgerCost{cold: cold.per(rows), warm: warm.per(rows),
			counter: fmt.Sprintf(`name(X, "name00007") examined %d for %d rows, naive %d`, rs.Stats.Examined, rows, scan.Stats.Examined)}
	})
}

// followerApplyCost boots a follower from a primary of n chained objects
// over HTTP, then lets it catch up, twice, on 256 new objects written to
// the primary with an edge each: its Run from a stopped apply loop until
// its store holds all 512 changes, the primary's side of the feed
// included. Each catch-up starts after the previous one's connections
// have closed and two collections have emptied the sync.Pools.
func followerApplyCost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		pm := plus.NewMemBackend(0)
		defer pm.Close()
		var mu sync.Mutex
		idle := sync.NewCond(&mu)
		busy := map[net.Conn]bool{}
		ts := httptest.NewUnstartedServer(plus.NewServer(plus.NewEngine(pm, privilege.TwoLevel())))
		ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
			mu.Lock()
			defer mu.Unlock()
			if s == http.StateClosed || s == http.StateIdle {
				delete(busy, c)
				idle.Broadcast()
			} else {
				busy[c] = true
			}
		}
		ts.Start()
		defer ts.Close()
		var batch plus.Batch
		for i := 0; i < n; i++ {
			batch.Objects = append(batch.Objects, plus.Object{ID: "c" + strconv.Itoa(i), Kind: plus.Data, Name: "chain"})
			if i > 0 {
				batch.Edges = append(batch.Edges, plus.Edge{From: "c" + strconv.Itoa(i-1), To: "c" + strconv.Itoa(i), Label: "input-to"})
			}
		}
		l.apply(pm, batch)
		fm := plus.NewMemBackend(0)
		defer fm.Close()
		r, err := replica.New(replica.Config{Primary: ts.URL, Backend: fm, PollInterval: -1})
		if err != nil {
			l.t.Fatal(err)
		}
		if err := r.Start(context.Background()); err != nil {
			l.t.Fatal(err)
		}
		const objects = 256
		catchUp := func(round int) sample {
			var batch plus.Batch
			for i := 0; i < objects; i++ {
				id := fmt.Sprintf("r%d-%d", round, i)
				batch.Objects = append(batch.Objects, plus.Object{ID: id, Kind: plus.Data, Name: "new"})
				batch.Edges = append(batch.Edges, plus.Edge{From: "c" + strconv.Itoa(i%n), To: id, Label: "input-to"})
			}
			l.apply(pm, batch)
			target := fm.Revision() + 2*objects
			mu.Lock()
			for len(busy) > 0 {
				idle.Wait()
			}
			mu.Unlock()
			liveHeap()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			s := measure(func() {
				go func() { done <- r.Run(ctx) }()
				for applied := fm.Notify(); fm.Revision() < target; applied = fm.Notify() {
					select {
					case <-applied:
					case err := <-done:
						l.t.Fatalf("the follower stopped at revision %d of %d: %v", fm.Revision(), target, err)
					}
				}
			})
			cancel()
			if err := <-done; err != nil {
				l.t.Fatal(err)
			}
			return s.per(2 * objects)
		}
		cold := catchUp(0)
		warm := catchUp(1)
		h := r.Health()
		return ledgerCost{cold: cold, warm: warm,
			counter: fmt.Sprintf("%d local applies of %d records, bootstrap included", h.Batches, h.Applied)}
	})
}

// figure10Cost runs Figure 10's experiment without its clock: a synthetic
// DAG of n nodes written object by object to a log store, the store
// reopened cold, and the full ancestry of its deepest node protected.
// Cold and warm are the first and second surrogate Generate over the
// answer's spec; the counter is how many times the bytes of the larger of
// surrogate and hide protection the write and the reopen allocate.
func figure10Cost(l *ledger, n int) [2]ledgerCost {
	return both(n, func(n int) ledgerCost {
		syn, err := workload.GenerateSynthetic(workload.SyntheticConfig{Nodes: n, TargetConnected: float64(n) / 4, ProtectFraction: 0.3, Seed: 99})
		if err != nil {
			l.t.Fatal(err)
		}
		path := filepath.Join(l.t.TempDir(), "fig10.log")
		ids := syn.Graph.Nodes()
		write := measure(func() {
			store, err := plus.Open(path, plus.Options{})
			if err != nil {
				l.t.Fatal(err)
			}
			for i, id := range ids {
				o := plus.Object{ID: string(id), Kind: plus.Data, Name: "object " + string(id)}
				if i%2 == 1 {
					o.Kind = plus.Invocation
				}
				if i%5 == 0 {
					o.Lowest, o.Protect = string(workload.ProtectedPredicate), string(plus.ModeSurrogate)
				}
				if err := store.PutObject(o); err != nil {
					l.t.Fatal(err)
				}
			}
			for _, e := range syn.Graph.Edges() {
				if err := store.PutEdge(plus.Edge{From: string(e.From), To: string(e.To), Label: "input-to"}); err != nil {
					l.t.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				l.t.Fatal(err)
			}
		})
		var store *plus.LogBackend
		reopen := measure(func() {
			if store, err = plus.Open(path, plus.Options{}); err != nil {
				l.t.Fatal(err)
			}
		})
		defer store.Close()
		res, err := plus.NewEngine(store, privilege.TwoLevel()).Lineage(plus.Request{Start: string(ids[len(ids)-1]),
			Direction: graph.Backward, Viewer: privilege.Public, Mode: plus.ModeSurrogate})
		if err != nil {
			l.t.Fatal(err)
		}
		protect := func(generate func(*account.Spec, privilege.Predicate) (*account.Account, error)) sample {
			drainSpares()
			return measure(func() {
				if _, err := generate(res.Spec, privilege.Public); err != nil {
					l.t.Fatal(err)
				}
			})
		}
		cold, warm, hide := protect(account.Generate), protect(account.Generate), protect(account.GenerateHide)
		createDB := write.bytes + reopen.bytes
		ratio := createDB / max(cold.bytes, hide.bytes)
		return ledgerCost{cold: cold, warm: warm, ops: ratio,
			counter: fmt.Sprintf("write %.0f KB + reopen %.0f KB = %.1f× protect (hide %.0f KB)",
				write.bytes/1024, reopen.bytes/1024, ratio, hide.bytes/1024)}
	})
}

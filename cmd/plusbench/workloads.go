package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/plus"
	"repro/internal/workload"
	"repro/pkg/plusclient"
)

// Operation classes. Latencies are never pooled across them: a 0.3 ms
// write beside an 80 ms first-read-after-write has no meaningful median.
const (
	clsLineage = iota
	clsQuery
	clsGet
	clsBatch
	numClasses
)

var classNames = [numClasses]string{"lineage", "query", "get", "batch"}

// Viewer indices into viewerNames (the default two-level lattice).
const (
	asPublic = iota
	asProtected
)

var viewerNames = [2]string{"Public", "Protected"}

// Graph shape held constant on every workload. protectEvery 10 puts 10 %
// of the nodes behind a surrogate — inside the paper's 10–90 % sweep,
// unlike GenerateLarge's 0.1 % default.
const (
	fullNodes    = 10000
	smokeNodes   = 2000
	runSeconds   = 15 // BENCHMARK.json's run_seconds
	edgesPerNode = 5
	protectEvery = 10
	loadBatch    = 1024
)

// setups is how often an untraced run sets up (set-up metrics are the
// median); coldStarts is how many kill -9 → reopen → first PLUSQL cycles
// each set-up of the log backend makes (reopen and cold start are the
// median). Traced and -smoke runs set up once.
const (
	setups     = 3
	coldStarts = 5
)

// graphParams names one generated graph; everything a workload draws
// (ids, names, protected marks) derives from it without a server.
type graphParams struct {
	Nodes int
	Seed  int64
}

func (g graphParams) config() workload.LargeConfig {
	return workload.LargeConfig{
		Nodes: g.Nodes, EdgesPerNode: edgesPerNode, ProtectEvery: protectEvery,
		BatchSize: loadBatch, Seed: g.Seed,
	}
}

// namePool mirrors LargeConfig's default NamePool.
func (g graphParams) namePool() int {
	if n := g.Nodes / 20; n > 1 {
		return n
	}
	return 1
}

// protectedNode reports whether GenerateLarge marked node i protected.
func protectedNode(i int) bool { return i%protectEvery == protectEvery/2 }

// writtenID names the j-th object client c writes; every 10th is
// protected and carries a surrogate (see protectedID).
func writtenID(c, j int) string { return fmt.Sprintf("w%d-%07d", c, j) }

func protectedWrite(j int) bool { return j%protectEvery == protectEvery/2 }

// protectedID reports whether id names a protected original — a
// generated node ("n" + 7 digits) or a written one ("w<client>-" + 7
// digits). Surrogates (suffix "~") are not. It runs on every id of every
// Public reply, so it parses by hand rather than with Sscanf.
func protectedID(id string) bool {
	var digits string
	switch {
	case len(id) == 8 && id[0] == 'n':
		digits = id[1:]
	case len(id) > 9 && id[0] == 'w' && id[len(id)-8] == '-':
		if _, err := strconv.Atoi(id[1 : len(id)-8]); err != nil {
			return false
		}
		digits = id[len(id)-7:]
	default:
		return false
	}
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 {
		return false
	}
	if id[0] == 'n' {
		return protectedNode(i)
	}
	return protectedWrite(i)
}

// op is one SDK call of a workload's sequence.
type op struct {
	Class  int
	Viewer int
	// Start and Depth describe a lineage (ancestors) request.
	Start string
	Depth int
	// Query is the PLUSQL text.
	Query string
	// ID is the GetObject target.
	ID string
	// Batch is the small write.
	Batch plusclient.BatchRequest
}

// key identifies the request for digests and error messages.
func (o op) key() string {
	switch o.Class {
	case clsLineage:
		return fmt.Sprintf("lineage %s d%d %s", o.Start, o.Depth, viewerNames[o.Viewer])
	case clsQuery:
		return fmt.Sprintf("query %s %s", o.Query, viewerNames[o.Viewer])
	case clsGet:
		return fmt.Sprintf("get %s %s", o.ID, viewerNames[o.Viewer])
	default:
		key := "batch " + o.Batch.Objects[0].ID + " under"
		for _, e := range o.Batch.Edges {
			key += " " + e.From
		}
		return key
	}
}

func nameQuery(k int) string { return fmt.Sprintf("name(X, %q)", workload.LargeName(k)) }

func ancestorQuery(id string) string {
	return fmt.Sprintf("ancestor*(X, %q), kind(X, invocation) limit 100", id)
}

// workloadSpec declares one named workload: how it is served, who
// drives it and the deterministic sequences they issue.
type workloadSpec struct {
	Name    string
	Why     string
	Backend string // plusd -backend
	Clients int
	// Headline is the operation class op_p50_ms reports on this workload.
	Headline int
	// DigestOps, set on read-only workloads, is how many of each client's
	// first replies the answers_digest covers.
	DigestOps int
	// SmokeOps bounds each client's sequence in -smoke runs.
	SmokeOps int
	// Warm, when set, lists requests issued once before the measured phase.
	Warm func(g graphParams) []op
	// Seq returns client c's sequence: a pure function of
	// (workload, seed, client index).
	Seq func(g graphParams, client int) func() op
}

var workloads = []workloadSpec{
	{
		Name:    "hot_read",
		Why:     "read-only over a warmed pool: every lineage is a cache hit and the revision never moves; bypass control for snapshot and Generate changes, and the load the serving surface must hold",
		Backend: "mem", Clients: 2, Headline: clsLineage, DigestOps: 1500, SmokeOps: 60,
		Warm: hotWarm, Seq: hotSeq,
	},
	{
		Name:    "cold_lineage",
		Why:     "depth-5 lineage on never-repeated starts: every request misses the cache, so closure fetch, buildSpec, account.Generate and the quadratic utility walk dominate; caches are bypassed",
		Backend: "mem", Clients: 2, Headline: clsLineage, DigestOps: 30, SmokeOps: 12,
		Warm: coldWarm, Seq: coldSeq,
	},
	{
		Name:    "write_then_read",
		Why:     "one client alternating a small batch and a never-asked read: every read pays the snapshot clone, cache refresh and View.Advance; where persistent snapshots and incremental paths must show",
		Backend: "mem", Clients: 1, Headline: clsQuery, SmokeOps: 40,
		Seq: writeReadSeq,
	},
	{
		Name:    "mixed_serving",
		Why:     "Zipf-skewed reads beside 2 % writes from two clients: eviction precision, Advance races and snapshot churn; a change that wins hot_read by coarser invalidation loses here",
		Backend: "mem", Clients: 2, Headline: clsLineage, SmokeOps: 60,
		Warm: mixedWarm, Seq: mixedSeq,
	},
	{
		Name:    "durable_ingest",
		Why:     "log backend without -sync: bulk load, kill -9 and reopen in set-up, then two clients of small batches; write path, log append and reopen do the work, query caches none",
		Backend: "log", Clients: 2, Headline: clsBatch, SmokeOps: 40,
		Seq: ingestSeq,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// rng derives the stream for (workload, seed, stream index). Clients use
// their index; pools shared by a workload's clients use poolStream.
func rng(workloadName string, seed int64, stream int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workloadName, seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

const poolStream = -1

// withoutReplacement draws each of n indices at most once, in an order
// fixed by r (a lazy Fisher–Yates shuffle).
type withoutReplacement struct {
	r    *rand.Rand
	perm []int
	used int
}

func newWithoutReplacement(r *rand.Rand, n int) *withoutReplacement {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return &withoutReplacement{r: r, perm: perm}
}

// next returns a fresh index, or false once all n are spent.
func (w *withoutReplacement) next() (int, bool) {
	if w.used == len(w.perm) {
		return 0, false
	}
	j := w.used + w.r.Intn(len(w.perm)-w.used)
	w.perm[w.used], w.perm[j] = w.perm[j], w.perm[w.used]
	w.used++
	return w.perm[w.used-1], true
}

// zipf draws ranks in [0, n) with P(k) ∝ (1+k)^-1.1.
func newZipf(r *rand.Rand, n int) *rand.Zipf { return rand.NewZipf(r, 1.1, 1, uint64(n-1)) }

// upperStarts draws k distinct unprotected nodes from the upper half of
// the rank order (deep closures), in an order fixed by (workload, seed).
func upperStarts(workloadName string, g graphParams, k int) []string {
	half := g.Nodes / 2
	wr := newWithoutReplacement(rng(workloadName, g.Seed, poolStream), g.Nodes-half)
	out := make([]string, 0, k)
	for len(out) < k {
		i, ok := wr.next()
		if !ok {
			break
		}
		if !protectedNode(half + i) {
			out = append(out, workload.LargeNodeID(half+i))
		}
	}
	return out
}

// smallBatch is client c's j-th write: one object under one or two
// parents, every 10th protected with a surrogate.
func smallBatch(r *rand.Rand, g graphParams, c, j int, parent string) plusclient.BatchRequest {
	id := writtenID(c, j)
	o := plus.Object{ID: id, Kind: plus.Data, Name: workload.LargeName(r.Intn(g.namePool()))}
	b := plusclient.BatchRequest{Edges: []plus.Edge{{From: parent, To: id, Label: "input-to"}}}
	if second := workload.LargeNodeID(r.Intn(g.Nodes)); r.Intn(2) == 0 && second != parent {
		b.Edges = append(b.Edges, plus.Edge{From: second, To: id, Label: "input-to"})
	}
	if protectedWrite(j) {
		o.Lowest, o.Protect = "Protected", "surrogate"
		b.Surrogates = []plus.SurrogateSpec{{ForID: id, ID: id + "~", Name: "redacted", InfoScore: 0.5}}
	}
	b.Objects = []plus.Object{o}
	return b
}

// hot_read: 50 % lineage depth 3 over 64 starts × 2 viewers, 25 % PLUSQL
// (name point queries over 64 names; every 5th an ancestor closure),
// 25 % GetObject uniform over the graph.
const hotPool = 64

func hotNames(g graphParams) []int {
	r := rng("hot_read/names", g.Seed, poolStream)
	names := make([]int, hotPool)
	for i := range names {
		names[i] = r.Intn(g.namePool())
	}
	return names
}

func hotWarm(g graphParams) []op {
	var ops []op
	for v := range viewerNames {
		for _, s := range upperStarts("hot_read", g, hotPool) {
			ops = append(ops,
				op{Class: clsLineage, Viewer: v, Start: s, Depth: 3},
				op{Class: clsQuery, Viewer: v, Query: ancestorQuery(s)})
		}
		for _, k := range hotNames(g) {
			ops = append(ops, op{Class: clsQuery, Viewer: v, Query: nameQuery(k)})
		}
	}
	return ops
}

func hotSeq(g graphParams, client int) func() op {
	r := rng("hot_read", g.Seed, client)
	starts, names := upperStarts("hot_read", g, hotPool), hotNames(g)
	queries := 0
	return func() op {
		v := r.Intn(2)
		switch u := r.Intn(100); {
		case u < 50:
			return op{Class: clsLineage, Viewer: v, Start: starts[r.Intn(len(starts))], Depth: 3}
		case u < 75:
			queries++
			if queries%5 == 0 {
				return op{Class: clsQuery, Viewer: v, Query: ancestorQuery(starts[r.Intn(len(starts))])}
			}
			return op{Class: clsQuery, Viewer: v, Query: nameQuery(names[r.Intn(len(names))])}
		default:
			return op{Class: clsGet, Viewer: v, ID: workload.LargeNodeID(r.Intn(g.Nodes))}
		}
	}
}

// cold_lineage: depth-5 ancestors, starts never repeated (the clients
// interleave one shared order), 75/25 Public/Protected. The warm-up asks
// two starts from the far end of that order so the server's heap and
// connections are warm without touching the measured ones.
func coldOrder(g graphParams) []string {
	return upperStarts("cold_lineage", g, g.Nodes)
}

func viewer7525(r *rand.Rand) int {
	if r.Intn(4) == 0 {
		return asProtected
	}
	return asPublic
}

func coldWarm(g graphParams) []op {
	order := coldOrder(g)
	var ops []op
	for i := 1; i <= 2 && i <= len(order); i++ {
		ops = append(ops, op{Class: clsLineage, Viewer: i % 2, Start: order[len(order)-i], Depth: 5})
	}
	return ops
}

func coldSeq(g graphParams, client int) func() op {
	r := rng("cold_lineage", g.Seed, client)
	order := coldOrder(g)
	i := client
	return func() op {
		// The order outlasts any run length the harness allows; wrapping
		// keeps the sequence total rather than failing.
		s := order[i%len(order)]
		i += 2
		return op{Class: clsLineage, Viewer: viewer7525(r), Start: s, Depth: 5}
	}
}

// write_then_read: pairs of [small batch; read], reads alternating a
// never-asked lineage depth 3 and a PLUSQL point query, all as Public.
func writeReadSeq(g graphParams, client int) func() op {
	r := rng("write_then_read", g.Seed, client)
	order := upperStarts("write_then_read", g, g.Nodes)
	step := 0
	return func() op {
		pair, phase := step/2, step%2
		step++
		if phase == 0 {
			return op{Class: clsBatch, Batch: smallBatch(r, g, client, pair, workload.LargeNodeID(r.Intn(g.Nodes)))}
		}
		if pair%2 == 0 {
			return op{Class: clsLineage, Start: order[(pair/2)%len(order)], Depth: 3}
		}
		return op{Class: clsQuery, Query: nameQuery(r.Intn(g.namePool()))}
	}
}

// mixed_serving: 48 % lineage depth 3 (Zipf over 256 starts), 25 %
// PLUSQL (as hot_read, Zipf over names and ids), 25 % GetObject, 2 %
// writes attaching a new node under a Zipf-chosen start; 75/25 viewers.
// The warm-up asks every start as both viewers, so a lineage miss in the
// measured phase is an eviction by a write, never a first touch: with a
// partly warmed pool the Zipf tail's cold misses outnumbered evictions
// three to one and moved the median with them.
// Every 50th operation of a client is the write, so the write share is
// exactly 2 % whatever the seed: the few expensive refreshes that follow
// a write dominate this workload's throughput, and drawing their number
// at random as well would double its run-to-run spread.
const (
	mixedPool       = 256
	mixedWriteEvery = 50
)

func mixedStarts(g graphParams) []string { return upperStarts("mixed_serving", g, mixedPool) }

func mixedWarm(g graphParams) []op {
	var ops []op
	for v := range viewerNames {
		for _, s := range mixedStarts(g) {
			ops = append(ops, op{Class: clsLineage, Viewer: v, Start: s, Depth: 3})
		}
	}
	return ops
}

func mixedSeq(g graphParams, client int) func() op {
	r := rng("mixed_serving", g.Seed, client)
	starts := mixedStarts(g)
	startZ, nameZ := newZipf(r, len(starts)), newZipf(r, g.namePool())
	queries, writes, i := 0, 0, 0
	return func() op {
		i++
		v := viewer7525(r)
		if i%mixedWriteEvery == 0 {
			writes++
			return op{Class: clsBatch, Batch: smallBatch(r, g, client, writes-1, starts[startZ.Uint64()])}
		}
		switch u := r.Intn(98); {
		case u < 48:
			return op{Class: clsLineage, Viewer: v, Start: starts[startZ.Uint64()], Depth: 3}
		case u < 73:
			queries++
			if queries%5 == 0 {
				return op{Class: clsQuery, Viewer: v, Query: ancestorQuery(starts[startZ.Uint64()])}
			}
			return op{Class: clsQuery, Viewer: v, Query: nameQuery(int(nameZ.Uint64()))}
		default:
			return op{Class: clsGet, Viewer: v, ID: workload.LargeNodeID(r.Intn(g.Nodes))}
		}
	}
}

// durable_ingest's measured phase: small batches only.
func ingestSeq(g graphParams, client int) func() op {
	r := rng("durable_ingest", g.Seed, client)
	j := 0
	return func() op {
		j++
		return op{Class: clsBatch, Batch: smallBatch(r, g, client, j-1, workload.LargeNodeID(r.Intn(g.Nodes)))}
	}
}

package plus

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// Mode selects how a lineage answer is protected for the viewer.
type Mode string

const (
	// ModeHide answers with the naive all-or-nothing account.
	ModeHide Mode = "hide"
	// ModeSurrogate answers with the maximally informative protected
	// account of the Surrogate Generation Algorithm.
	ModeSurrogate Mode = "surrogate"
)

// Request is one lineage query: the paper's canonical "what data and
// processes contributed to this data?" traversal.
type Request struct {
	// Start is the object whose lineage is requested.
	Start string
	// StartName, when Start is empty, seeds the traversal from every
	// object whose name feature equals it — "lineage of everything called
	// X". Seed resolution is served by the storage name index, so it costs
	// a posting-list lookup, not a scan. It is an error if no object
	// matches.
	StartName string
	// Direction selects ancestors (Backward, the common provenance
	// question), descendants (Forward), or the full weakly-connected
	// lineage (Undirected).
	Direction graph.Direction
	// Depth bounds the traversal in hops; 0 means unbounded.
	Depth int
	// Viewer is the consumer's privilege-predicate.
	Viewer privilege.Predicate
	// Mode picks hide vs surrogate protection; default surrogate.
	Mode Mode
	// LabelFilter, when set, restricts the traversal to edges with this
	// label (e.g. only "input-to" dependencies).
	LabelFilter string
	// KindFilter, when set, restricts the traversal to objects of this
	// kind; the start object is always included. Paths through
	// filtered-out objects are not followed.
	KindFilter ObjectKind
}

// Timing is the Figure 10 cost decomposition of answering one query.
type Timing struct {
	// DBAccess: reading the lineage closure out of the store.
	DBAccess time.Duration
	// Build: assembling the graph, labeling, policy and surrogate
	// registry from the fetched records.
	Build time.Duration
	// Protect: generating the protected account.
	Protect time.Duration
	// Total covers the whole query.
	Total time.Duration
	// Levels is how many BFS levels the closure fetch expanded — the
	// traversal depth actually reached, bounded by Request.Depth.
	Levels int
}

// Result is a protected lineage answer.
type Result struct {
	Spec    *account.Spec
	Account *account.Account
	Timing  Timing

	// utilOnce memoises the §4.1 utility measures: PathUtility takes the
	// all-nodes reachability counts of both graphs (one blocked-bitset
	// pass each, see graph.ConnectedPairsAll), and a cache-served answer
	// is asked for the same numbers on every request.
	utilOnce sync.Once
	pathUtil float64
	nodeUtil float64
}

// Utilities returns the §4.1 path/node utility of the protected answer,
// computed on first use and reused for every later serving of the same
// Result (cached answers are shared and read-only).
func (r *Result) Utilities() (path, node float64) {
	r.utilOnce.Do(func() {
		r.pathUtil = measure.PathUtility(r.Spec, r.Account)
		r.nodeUtil = measure.NodeUtility(r.Spec, r.Account)
	})
	return r.pathUtil, r.nodeUtil
}

// Engine answers lineage queries against a storage backend under a
// privilege lattice. Queries run over immutable snapshots (Backend
// .Snapshot), so they never hold a store lock during traversal: readers
// scale with cores and writers are never blocked by a deep closure walk.
type Engine struct {
	store   Backend
	lattice *privilege.Lattice

	// fetchWorkers bounds the frontier-BFS worker pool: GOMAXPROCS at
	// construction.
	fetchWorkers int

	// obsHooks holds the engine's telemetry handles (SetObservability);
	// nil means uninstrumented. Atomic so wiring it after construction is
	// safe while queries are in flight.
	obsHooks atomic.Pointer[lineageObs]
}

// lineageObs is the engine's telemetry bundle: phase/level histograms
// plus the shared slow-query sink.
type lineageObs struct {
	o      *Observability
	phase  *obs.HistogramVec // dbAccess / build / protect / total
	levels *obs.Histogram
}

// SetObservability instruments the engine: per-phase latency histograms
// (plus_lineage_seconds{phase}), the BFS level distribution, and
// slow-query capture through o's ring. Only computed queries record —
// the CachedEngine serves hits without touching the engine, so cached
// answers never double-count. Passing nil uninstruments.
func (en *Engine) SetObservability(o *Observability) {
	if o == nil {
		en.obsHooks.Store(nil)
		return
	}
	reg := o.Registry()
	en.obsHooks.Store(&lineageObs{
		o: o,
		phase: reg.HistogramVec("plus_lineage_seconds",
			"Lineage query latency by phase (dbAccess/build/protect/total).", obs.ScaleNanos, "phase"),
		levels: reg.Histogram("plus_lineage_bfs_levels",
			"BFS levels expanded per computed lineage query.", 1),
	})
}

// observe records one computed lineage answer's telemetry.
func (en *Engine) observe(ctx context.Context, req Request, t Timing) {
	h := en.obsHooks.Load()
	if h == nil {
		return
	}
	h.phase.With("dbAccess").Observe(t.DBAccess.Nanoseconds())
	h.phase.With("build").Observe(t.Build.Nanoseconds())
	h.phase.With("protect").Observe(t.Protect.Nanoseconds())
	h.phase.With("total").Observe(t.Total.Nanoseconds())
	h.levels.Observe(int64(t.Levels))
	if h.o.SlowQueryLog().Eligible(t.Total) {
		h.o.RecordSlowQuery(obs.SlowEntry{
			RequestID: obs.RequestID(ctx),
			Kind:      "lineage",
			Query:     describeLineage(req),
			Viewer:    string(req.Viewer),
			TotalUS:   t.Total.Microseconds(),
			Phases: []obs.Phase{
				{Name: "dbAccess", US: t.DBAccess.Microseconds()},
				{Name: "build", US: t.Build.Microseconds()},
				{Name: "protect", US: t.Protect.Microseconds()},
			},
			Levels: t.Levels,
		})
	}
}

// startRef names a request's seed for error messages and the slow-query
// log: the start id, or name:<StartName> for multi-seed requests.
func startRef(req Request) string {
	if req.Start == "" && req.StartName != "" {
		return "name:" + req.StartName
	}
	return req.Start
}

// describeLineage renders a request compactly for the slow-query log.
func describeLineage(req Request) string {
	dir := "ancestors"
	switch req.Direction {
	case graph.Forward:
		dir = "descendants"
	case graph.Undirected:
		dir = "both"
	}
	s := fmt.Sprintf("lineage start=%s direction=%s mode=%s", startRef(req), dir, req.Mode)
	if req.Depth > 0 {
		s += fmt.Sprintf(" depth=%d", req.Depth)
	}
	if req.LabelFilter != "" {
		s += " label=" + req.LabelFilter
	}
	if req.KindFilter != "" {
		s += " kind=" + string(req.KindFilter)
	}
	return s
}

// NewEngine binds a backend to the lattice its Lowest nicknames refer to.
func NewEngine(store Backend, lattice *privilege.Lattice) *Engine {
	return &Engine{store: store, lattice: lattice, fetchWorkers: runtime.GOMAXPROCS(0)}
}

// Lattice returns the engine's privilege lattice.
func (en *Engine) Lattice() *privilege.Lattice { return en.lattice }

// Backend returns the storage backend the engine queries.
func (en *Engine) Backend() Backend { return en.store }

// fetched is the raw lineage closure pulled from the store.
type fetched struct {
	objects    []Object
	edges      []Edge
	surrogates []SurrogateSpec
	// levels is how many BFS levels the walk expanded.
	levels int
}

// parallelFrontier is the frontier width at which fetch switches from a
// single-threaded expansion to the worker pool: below it the
// coordination overhead outweighs the map lookups being parallelised.
const parallelFrontier = 64

// fetch walks a snapshot's adjacency from the start object, honouring the
// requested direction and depth, and returns every object, edge and
// surrogate in the closure. This is the "DB access" phase of Figure 10.
//
// The walk is a level-synchronised BFS: each depth's frontier is expanded
// — in parallel across a worker pool once the frontier is wide enough —
// and the results are merged in frontier order, so the visit order (and
// therefore the fetched closure) is identical to the sequential walk.
// Because the snapshot is immutable, no locks are held at any point.
//
// Cancellation is checked once per BFS level: a deep walk over a large
// store stops within one frontier expansion of the context's deadline.
func (en *Engine) fetch(ctx context.Context, req Request) (*fetched, error) {
	sn, err := en.store.Snapshot()
	if err != nil {
		return nil, err
	}
	// Resolve the seed set: an explicit start object, or — when Start is
	// empty — every object whose name matches StartName, answered by the
	// snapshot's name postings.
	var seeds []string
	if req.Start != "" || req.StartName == "" {
		if _, ok := sn.Object(req.Start); !ok {
			return nil, fmt.Errorf("plus: lineage of %q: %w", req.Start, ErrNotFound)
		}
		seeds = []string{req.Start}
	} else {
		seeds = sn.FindByName(req.StartName)
		if len(seeds) == 0 {
			return nil, fmt.Errorf("plus: lineage of %q: %w", startRef(req), ErrNotFound)
		}
		// Index postings are unordered; the BFS visit order (and so the
		// fetched closure) must be deterministic.
		sort.Strings(seeds)
	}

	// expand returns the admissible edges of one node. A one-way walk
	// without filters reads the snapshot's adjacency in place; only
	// Undirected concatenates, and only a filter copies.
	expand := func(cur string) []Edge {
		var steps []Edge
		switch req.Direction {
		case graph.Forward:
			steps = sn.Out(cur)
		case graph.Backward:
			steps = sn.In(cur)
		default:
			steps = append(slices.Clip(sn.Out(cur)), sn.In(cur)...)
		}
		if req.LabelFilter == "" && req.KindFilter == "" {
			return steps
		}
		var kept []Edge
		for _, e := range steps {
			if req.LabelFilter != "" && e.Label != req.LabelFilter {
				continue
			}
			if req.KindFilter != "" {
				if o, ok := sn.Object(other(e, cur)); !ok || o.Kind != req.KindFilter {
					continue
				}
			}
			kept = append(kept, e)
		}
		return kept
	}

	f := &fetched{}
	seen := map[string]bool{}
	// A one-way walk meets each edge once, at the endpoint it expands
	// (each node is expanded at most once); an undirected walk meets it at
	// both, so only that one dedupes edges.
	var edgeSeen map[[2]string]bool
	if req.Direction == graph.Undirected {
		edgeSeen = map[[2]string]bool{}
	}
	var frontier []string
	for _, id := range seeds {
		if seen[id] {
			continue
		}
		seen[id] = true
		o, _ := sn.Object(id)
		f.objects = append(f.objects, o)
		frontier = append(frontier, id)
	}
	depth := 0
	for ; len(frontier) > 0 && (req.Depth == 0 || depth < req.Depth); depth++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("plus: lineage of %q: %w", startRef(req), err)
		}
		expansions := make([][]Edge, len(frontier))
		if workers := en.fetchWorkers; workers > 1 && len(frontier) >= parallelFrontier {
			// Worker pool over contiguous chunks of the frontier.
			if workers > len(frontier) {
				workers = len(frontier)
			}
			chunk := (len(frontier) + workers - 1) / workers
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if lo >= len(frontier) {
					break
				}
				if hi > len(frontier) {
					hi = len(frontier)
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for i := lo; i < hi; i++ {
						expansions[i] = expand(frontier[i])
					}
				}(lo, hi)
			}
			wg.Wait()
		} else {
			for i, cur := range frontier {
				expansions[i] = expand(cur)
			}
		}

		// Merge in frontier order: dedupe is sequential, so the closure
		// is deterministic regardless of worker scheduling.
		var next []string
		for i, steps := range expansions {
			for _, e := range steps {
				if edgeSeen != nil {
					key := [2]string{e.From, e.To}
					if edgeSeen[key] {
						continue
					}
					edgeSeen[key] = true
				}
				f.edges = append(f.edges, e)
				if n := other(e, frontier[i]); !seen[n] {
					seen[n] = true
					o, _ := sn.Object(n)
					f.objects = append(f.objects, o)
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	f.levels = depth
	for _, o := range f.objects {
		f.surrogates = append(f.surrogates, sn.Surrogates(o.ID)...)
	}
	return f, nil
}

// other returns the endpoint of e that is not cur.
func other(e Edge, cur string) string {
	if e.To == cur {
		return e.From
	}
	return e.To
}

// build assembles the account.Spec from a fetched closure: the "build
// graph" phase of Figure 10.
func (en *Engine) build(f *fetched) (*account.Spec, error) {
	return buildSpec(en.lattice, f)
}

// buildSpec turns a fetched record set into an account.Spec over the
// lattice: graph, labeling, policy thresholds and surrogate registry.
// Shared by the lineage engine (per-closure) and SpecFromSnapshot
// (whole store, for PLUSQL's protected views).
func buildSpec(lattice *privilege.Lattice, f *fetched) (*account.Spec, error) {
	g := graph.New()
	lb := privilege.NewLabeling(lattice)
	pol := policy.New(lattice)
	reg := surrogate.NewRegistry(lb)

	for _, o := range f.objects {
		if err := applyObjectRecord(g, lb, pol, o); err != nil {
			return nil, err
		}
	}
	for _, e := range f.edges {
		if err := applyEdgeRecord(g, pol, e); err != nil {
			return nil, err
		}
	}
	for _, sp := range f.surrogates {
		if err := applySurrogateRecord(reg, sp); err != nil {
			return nil, err
		}
	}
	return &account.Spec{Graph: g, Labeling: lb, Policy: pol, Surrogates: reg}, nil
}

// Lineage answers one lineage query with a protected account and its cost
// decomposition.
func (en *Engine) Lineage(req Request) (*Result, error) {
	return en.LineageContext(context.Background(), req)
}

// LineageContext is Lineage with cancellation and deadline propagation:
// the context is checked at every BFS level of the closure fetch and at
// each phase boundary, so a cancelled request releases its goroutine
// instead of finishing a walk nobody is waiting for.
func (en *Engine) LineageContext(ctx context.Context, req Request) (*Result, error) {
	t0 := time.Now()
	if req.Viewer == "" {
		req.Viewer = privilege.Public
	}
	if req.Mode == "" {
		req.Mode = ModeSurrogate
	}
	if !en.lattice.Known(req.Viewer) {
		return nil, fmt.Errorf("plus: unknown viewer predicate %q", req.Viewer)
	}

	f, err := en.fetch(ctx, req)
	tFetch := time.Now()
	if err != nil {
		return nil, err
	}

	spec, err := en.build(f)
	tBuild := time.Now()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plus: lineage of %q: %w", startRef(req), err)
	}

	var acct *account.Account
	switch req.Mode {
	case ModeHide:
		acct, err = account.GenerateHide(spec, req.Viewer)
	case ModeSurrogate:
		acct, err = account.Generate(spec, req.Viewer)
	default:
		err = fmt.Errorf("plus: unknown mode %q", req.Mode)
	}
	tProtect := time.Now()
	if err != nil {
		return nil, err
	}

	res := &Result{
		Spec:    spec,
		Account: acct,
		Timing: Timing{
			DBAccess: tFetch.Sub(t0),
			Build:    tBuild.Sub(tFetch),
			Protect:  tProtect.Sub(tBuild),
			Total:    tProtect.Sub(t0),
			Levels:   f.levels,
		},
	}
	en.observe(ctx, req, res.Timing)
	return res, nil
}

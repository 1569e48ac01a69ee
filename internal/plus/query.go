package plus

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/account"
	"repro/internal/graph"
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

// withDefaults fills in the defaults of an unset viewer (Public) and mode
// (surrogate).
func (req Request) withDefaults() Request {
	if req.Viewer == "" {
		req.Viewer = privilege.Public
	}
	if req.Mode == "" {
		req.Mode = ModeSurrogate
	}
	return req
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
}

// Engine answers lineage queries against a storage backend under a
// privilege lattice. Queries run over immutable snapshots (Backend
// .Snapshot), so they never hold a store lock during traversal: readers
// scale with cores and writers are never blocked by a deep closure walk.
type Engine struct {
	store   Backend
	lattice *privilege.Lattice

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
	return &Engine{store: store, lattice: lattice}
}

// Lattice returns the engine's privilege lattice.
func (en *Engine) Lattice() *privilege.Lattice { return en.lattice }

// Backend returns the storage backend the engine queries.
func (en *Engine) Backend() Backend { return en.store }

// fetched is the raw lineage closure pulled from the store, held as runs
// that share the snapshot's records wherever the walk can: buildSpec reads
// each object from the snapshot by id, and a one-way walk without filters
// keeps the snapshot's own adjacency slices as its edge runs, copying no
// edge. Every run is read-only.
type fetched struct {
	sn *Snapshot
	// ids holds the closure's object ids in visit order, one run per BFS
	// level; edges and surrogates hold its edges and the surrogate specs
	// of its objects.
	ids        [][]string
	edges      [][]Edge
	surrogates [][]SurrogateSpec
	// levels is how many BFS levels the walk expanded.
	levels int
}

// fetch walks a snapshot's adjacency from the start object, honouring the
// requested direction and depth, and returns the ids, edges and
// surrogates of the closure as runs (see fetched): it copies no object,
// and on a one-way walk without filters no edge either. This is the "DB
// access" phase of Figure 10.
//
// The walk is a level-synchronised BFS: each depth's frontier is expanded
// and merged in frontier order, so the visit order (and therefore the
// fetched closure) is deterministic. Because the snapshot is immutable, no
// locks are held at any point.
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
		if _, ok := sn.stored(req.Start); !ok {
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
	// without filters reads the snapshot's adjacency in place, and fetch
	// keeps that slice as an edge run; an undirected walk concatenates
	// into a slice of its own, which the level loop below dedupes in place, and
	// only a filter copies.
	expand := func(cur string) []Edge {
		var steps []Edge
		switch req.Direction {
		case graph.Forward:
			steps = sn.Out(cur)
		case graph.Backward:
			steps = sn.In(cur)
		default:
			steps = slices.Concat(sn.Out(cur), sn.In(cur))
		}
		if req.LabelFilter == "" && req.KindFilter == "" {
			return steps
		}
		var kept []Edge
		for i := range steps {
			e := &steps[i]
			if req.LabelFilter != "" && e.Label != req.LabelFilter {
				continue
			}
			if req.KindFilter != "" {
				if o, ok := sn.stored(other(e, cur)); !ok || o.Kind != req.KindFilter {
					continue
				}
			}
			kept = append(kept, *e)
		}
		return kept
	}

	f := &fetched{sn: sn}
	seen := make(map[string]bool, len(seeds))
	// A one-way walk meets each edge once, at the endpoint it expands
	// (each node is expanded at most once); an undirected walk meets it at
	// both, so only that one dedupes edges.
	var edgeSeen map[[2]string]bool
	if req.Direction == graph.Undirected {
		edgeSeen = map[[2]string]bool{}
	}
	frontier := make([]string, 0, len(seeds))
	for _, id := range seeds {
		if !seen[id] {
			seen[id] = true
			frontier = append(frontier, id)
		}
	}
	f.ids = append(f.ids, frontier)
	depth := 0
	for ; len(frontier) > 0 && (req.Depth == 0 || depth < req.Depth); depth++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("plus: lineage of %q: %w", startRef(req), err)
		}
		var next []string
		for _, cur := range frontier {
			steps := expand(cur)
			if edgeSeen != nil {
				kept := steps[:0]
				for j := range steps {
					if key := [2]string{steps[j].From, steps[j].To}; !edgeSeen[key] {
						edgeSeen[key] = true
						kept = append(kept, steps[j])
					}
				}
				steps = kept
			}
			if len(steps) == 0 {
				continue
			}
			f.edges = append(f.edges, steps)
			for j := range steps {
				if n := other(&steps[j], cur); !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		if len(next) > 0 {
			f.ids = append(f.ids, next)
		}
		frontier = next
	}
	f.levels = depth
	for _, run := range f.ids {
		for _, id := range run {
			if ss := sn.storedSurrogates(id); len(ss) > 0 {
				f.surrogates = append(f.surrogates, ss)
			}
		}
	}
	return f, nil
}

// other returns the endpoint of e that is not cur.
func other(e *Edge, cur string) string {
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
// lattice: graph, labeling, policy thresholds and surrogate registry. It
// reads each object from the snapshot by id and each edge and surrogate in
// place, and sizes the graph from the fetched counts, so adding the
// closure grows neither its node nor its edge index. Shared by the lineage engine
// (per-closure) and SpecFromSnapshot (whole store, for PLUSQL's protected
// views).
func buildSpec(lattice *privilege.Lattice, f *fetched) (*account.Spec, error) {
	nodes, edges := 0, 0
	for _, run := range f.ids {
		nodes += len(run)
	}
	for _, run := range f.edges {
		edges += len(run)
	}
	g := graph.NewSized(nodes, edges)
	lb := privilege.NewLabeling(lattice)
	pol := policy.New(lattice)
	reg := surrogate.NewRegistry(lb)

	for _, run := range f.ids {
		for _, id := range run {
			o, _ := f.sn.stored(id)
			if err := applyObjectRecord(g, lb, pol, &o); err != nil {
				return nil, err
			}
		}
	}
	for _, run := range f.edges {
		for i := range run {
			if err := applyEdgeRecord(g, pol, &run[i]); err != nil {
				return nil, err
			}
		}
	}
	for _, run := range f.surrogates {
		for i := range run {
			if err := applySurrogateRecord(reg, &run[i]); err != nil {
				return nil, err
			}
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
	req = req.withDefaults()
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

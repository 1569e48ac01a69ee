package plus

import (
	"container/list"
	"context"
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/privilege"
)

// CachedEngine wraps an Engine with per-query memoisation of encoded
// protected lineage answers, invalidated by the change feed: a write
// evicts only the cached answers whose lineage closure the delta touches.
// An entry is the answer's response body and its closure's sorted ids, so
// a hit writes bytes already encoded and pins no Spec or Account.
// LineageBody is the only way in: the engine it fronts is a field, not
// embedded, so an uncached Lineage cannot be called on a CachedEngine by
// mistake.
//
// A miss allocates about what it keeps. fetch hands buildSpec the
// snapshot's own adjacency and each object's graph-form feature map, the
// one the store shaped at ingest (shape.go), the anchor walks key their
// state by G's slots, the body is encoded into reused scratch and kept as
// one exact-size copy, and G and G′ go back to the graph package
// (graph.Release) for the next miss to build on, since nothing outside
// LineageBody holds them: on plusbench's graph a depth-5 miss allocates
// ≈1.3 KB per closure node, ≈4× its body (the "served miss" rows of the
// root package's TestCostLedger).
//
// This realises the §7 advantage the paper claims over view-based
// protection ("view recomputation when object sensitivity changes" versus
// having "the appropriate views constructed automatically"): accounts are
// derived on demand and cached, and a store mutation — including new
// surrogates or re-stored objects with different sensitivity — invalidates
// exactly the accounts whose region it can change. A closure can only grow
// through objects already inside it, and only along the direction it was
// walked in, so an answer stays cached unless the delta changes an object
// or surrogate inside its closure, adds an edge on the side of the closure
// its walk reads (see cacheDelta.stales; an answer not yet served twice is
// held to either side), or changes what its KindFilter or StartName
// select. Only when the backend no longer retains the
// revision window does the cache fall back to a full wipe.
//
// The cache is bounded: it holds at most lineageCacheBudget closure nodes
// across all entries and evicts the least recently served answers beyond
// that. The budget counts closure nodes, not entries, because an entry's
// body and closure grow with its closure and answers differ several-fold
// in size with the requested depth; an answer larger than the whole
// budget is served but never admitted.
type CachedEngine struct {
	engine *Engine
	store  Backend // engine.Backend(), the feed the cache follows

	mu      sync.Mutex
	rev     uint64
	entries map[cacheKey]*list.Element // of *cacheEntry
	lru     list.List                  // most recently served first
	budget  int                        // lineageCacheBudget outside tests
	held    int                        // closure nodes over all entries
	stats   LineageCacheStats
}

// lineageCacheBudget is the number of closure nodes the lineage cache may
// hold (each costs about 0.32 KB of live heap, nearly all of it body;
// README, "The lineage cache is bounded").
const lineageCacheBudget = 1 << 17

// LineageCacheStats reports the lineage cache counters.
type LineageCacheStats struct {
	// Entries is the live cached answer count; ClosureNodes is the closure
	// nodes those answers hold, the quantity the cache's bound is set in.
	Entries      int `json:"entries"`
	ClosureNodes int `json:"closureNodes"`
	// Hits / Misses count lineage lookups.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// DeltaEvictions counts entries evicted because a change-feed delta
	// touched their closure; CapacityEvictions counts entries evicted as
	// least recently served to stay inside the closure-node budget; Wipes
	// counts full invalidations (change feed too far behind or
	// unavailable).
	DeltaEvictions    uint64 `json:"deltaEvictions"`
	CapacityEvictions uint64 `json:"capacityEvictions"`
	Wipes             uint64 `json:"wipes"`
}

type cacheEntry struct {
	key cacheKey
	// body is the answer's response body, shared read-only by every hit.
	body []byte
	// closure holds the original object ids the answer was derived from,
	// sorted; cacheDelta.stales tests a delta against them.
	closure []string
	// served is set by the first hit; see cacheDelta.stales.
	served bool
}

type cacheKey struct {
	start     string
	startName string
	direction graph.Direction
	depth     int
	viewer    privilege.Predicate
	mode      Mode
	label     string
	kind      ObjectKind
}

// NewCachedEngine wraps the engine with a delta-scoped invalidating cache.
func NewCachedEngine(engine *Engine) *CachedEngine {
	return &CachedEngine{engine: engine, store: engine.Backend(), entries: map[cacheKey]*list.Element{}, budget: lineageCacheBudget}
}

// removeLocked drops one entry and its share of the held count.
func (ce *CachedEngine) removeLocked(el *list.Element) {
	ent := ce.lru.Remove(el).(*cacheEntry)
	delete(ce.entries, ent.key)
	ce.held -= len(ent.closure)
}

// admitLocked caches ent as the most recently served answer, replacing
// any entry a concurrent miss of the same key admitted first, and evicts
// from the least recently served end until the budget holds again.
func (ce *CachedEngine) admitLocked(ent *cacheEntry) {
	if el, ok := ce.entries[ent.key]; ok {
		ce.removeLocked(el)
	}
	ce.entries[ent.key] = ce.lru.PushFront(ent)
	ce.held += len(ent.closure)
	for ce.held > ce.budget {
		ce.removeLocked(ce.lru.Back())
		ce.stats.CapacityEvictions++
	}
}

// refreshLocked brings the cache up to revision rev, evicting the entries
// whose closure the intervening changes touch. Callers hold ce.mu. A rev
// below the cache generation (a caller that read the revision before a
// concurrent refresh) never regresses it: the newer refresh already
// processed those changes.
func (ce *CachedEngine) refreshLocked(rev uint64) {
	if rev <= ce.rev {
		return
	}
	if len(ce.entries) == 0 {
		// Nothing to evict: skip reading the feed, which on the first ask
		// after a bulk load is the whole store.
		ce.rev = rev
		return
	}
	changes, err := ce.store.ChangesSince(ce.rev)
	if err != nil {
		// Too far behind the retained feed (or the backend is closing):
		// scope is unknown, wipe everything.
		ce.entries = map[cacheKey]*list.Element{}
		ce.lru.Init()
		ce.held = 0
		ce.stats.Wipes++
		ce.rev = rev
		return
	}
	d := newCacheDelta(changes)
	for _, el := range ce.entries {
		if d.stales(el.Value.(*cacheEntry)) {
			ce.removeLocked(el)
			ce.stats.DeltaEvictions++
		}
	}
	ce.rev = rev
}

// cacheDelta is a change window split by what each record can change in
// a cached answer.
type cacheDelta struct {
	// changed holds objects stored or replaced and originals given a new
	// surrogate; froms and tos hold the two ends of new edges.
	changed, froms, tos map[string]bool
	// kinds and names hold the kind and name every stored object now has.
	kinds map[ObjectKind]bool
	names map[string]bool
}

func newCacheDelta(changes []Change) *cacheDelta {
	d := &cacheDelta{
		changed: map[string]bool{}, froms: map[string]bool{}, tos: map[string]bool{},
		kinds: map[ObjectKind]bool{}, names: map[string]bool{},
	}
	for _, c := range changes {
		switch c.Kind {
		case ChangeObject:
			d.changed[c.Object.ID] = true
			d.kinds[c.Object.Kind] = true
			d.names[c.Object.Name] = true
		case ChangeEdge:
			d.froms[c.Edge.From] = true
			d.tos[c.Edge.To] = true
		case ChangeSurrogate:
			d.changed[c.Surrogate.ForID] = true
		}
	}
	return d
}

// stales reports whether the delta can change ent's answer. fetch reads
// the object and surrogates of every closure node, In of the nodes it
// expands going backward and Out going forward, so a new edge matters to
// a backward answer only when its To is in the closure and to a forward
// one only when its From is. Two things sit outside the closure: an
// object fetch skipped because its kind did not pass the KindFilter, which
// a re-store with that kind lets in, and an object that now carries the
// StartName and so is a new seed.
//
// The direction is only trusted for an answer that has been served from
// the cache at least once. One nobody has asked for twice is tested as if
// walked both ways, so any write next to it drops it: it holds its body
// and closure (≈31 KB at depth 3 on plusbench's graph), and answers that
// are never re-asked would otherwise outlive every write around them and
// pile up to the budget — on a write-then-read-something-new load the
// server's resident set doubled for no hit.
func (d *cacheDelta) stales(ent *cacheEntry) bool {
	k := ent.key
	if k.kind != "" && d.kinds[k.kind] || k.start == "" && d.names[k.startName] {
		return true
	}
	dir := k.direction
	if !ent.served {
		dir = graph.Undirected
	}
	return intersects(ent.closure, d.changed) ||
		dir != graph.Forward && intersects(ent.closure, d.tos) ||
		dir != graph.Backward && intersects(ent.closure, d.froms)
}

// intersects reports whether the sorted closure and the id set share a
// member: a binary search per id of the set, or a scan of the closure
// when the set is the larger.
func intersects(closure []string, set map[string]bool) bool {
	if len(set) < len(closure) {
		for id := range set {
			if _, ok := slices.BinarySearch(closure, id); ok {
				return true
			}
		}
		return false
	}
	for _, id := range closure {
		if set[id] {
			return true
		}
	}
	return false
}

// LineageBody returns the response body of req's protected lineage answer:
// the bytes appendLineageBody writes for Engine.LineageContext's answer.
// A repeated query whose lineage region is unchanged gets the slice the
// first one encoded, with its timing; callers must not write to it. A
// body that cannot be encoded fails with an error wrapping
// errNoJSONForm and is not cached.
func (ce *CachedEngine) LineageBody(ctx context.Context, req Request) ([]byte, error) {
	// A closed backend must not keep answering out of the cache.
	if err := ce.store.Ping(); err != nil {
		return nil, err
	}
	req = req.withDefaults()
	// The key fixes every field the body echoes (start, startName, viewer,
	// mode), so one body serves every request with that key.
	key := cacheKey{
		start:     req.Start,
		startName: req.StartName,
		direction: req.Direction,
		depth:     req.Depth,
		viewer:    req.Viewer,
		mode:      req.Mode,
		label:     req.LabelFilter,
		kind:      req.KindFilter,
	}
	rev := ce.store.Revision()

	ce.mu.Lock()
	ce.refreshLocked(rev)
	if el, ok := ce.entries[key]; ok {
		ce.stats.Hits++
		ce.lru.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		ent.served = true
		body := ent.body
		ce.mu.Unlock()
		return body, nil
	}
	ce.stats.Misses++
	ce.mu.Unlock()

	res, err := ce.engine.LineageContext(ctx, req)
	if err != nil {
		return nil, err
	}
	body, err := encodeBody(req, res)
	// The closure holds the answer's original ids; nodes come in id order,
	// so it is sorted. An answer larger than the whole cache is served but
	// never admitted.
	g := res.Spec.Graph
	var closure []string
	if err == nil && g.NumNodes() <= ce.budget {
		closure = make([]string, 0, g.NumNodes())
		for n := range g.SortedNodes() {
			closure = append(closure, string(n.ID))
		}
	}
	// Nothing outside this call holds the answer's graphs: hand them back
	// for the next miss to build on, G first, for its spec, then G′, whose
	// adjacency array its clone reuses.
	graph.Release(g)
	graph.Release(res.Account.Graph)
	if err != nil || closure == nil {
		return body, err
	}
	ce.mu.Lock()
	// Only cache when the store has not moved under the computation: the
	// answer's snapshot sits between rev (observed before computing) and
	// the current revision, so equality pins it to the cache generation.
	if ce.rev == rev && ce.store.Revision() == rev {
		ce.admitLocked(&cacheEntry{key: key, body: body, closure: closure})
	}
	ce.mu.Unlock()
	return body, nil
}

// bodyScratch holds the buffers lineage misses encode their bodies into,
// one per concurrent miss up to its capacity. It is a channel rather than
// a sync.Pool because a pool drops its buffers at every collection, and a
// served miss would then grow its buffer again from nothing. A buffer past
// maxBodyScratch is not kept, so a rare huge answer stays garbage.
var bodyScratch = make(chan []byte, runtime.GOMAXPROCS(0))

const maxBodyScratch = 1 << 20

// encodeBody returns the body of a lineage answer in a slice of exactly
// its length. It is encoded into scratch from bodyScratch, which grows to
// the size of the largest answers once and is reused from miss to miss.
func encodeBody(req Request, res *Result) ([]byte, error) {
	var scratch []byte
	select {
	case scratch = <-bodyScratch:
	default:
	}
	buf, err := appendLineageBody(scratch[:0], req, res)
	var body []byte
	if err == nil {
		body = append(make([]byte, 0, len(buf)), buf...)
	}
	if cap(buf) <= maxBodyScratch {
		select {
		case bodyScratch <- buf:
		default:
		}
	}
	return body, err
}

// Stats reports the full lineage-cache counters, including delta-scoped
// eviction activity.
func (ce *CachedEngine) Stats() LineageCacheStats {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	st := ce.stats
	st.Entries = len(ce.entries)
	st.ClosureNodes = ce.held
	return st
}

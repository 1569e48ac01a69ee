package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
)

// Provenance is the facade over the PLUS substrate: one handle bundling a
// storage backend, a privilege lattice and a cache-fronted,
// snapshot-isolated lineage engine, so callers get "store records, ask
// protected lineage questions, score the answers" without wiring the
// layers themselves.
type Provenance struct {
	backend plus.Backend
	engine  *plus.CachedEngine
	query   *plusql.Engine
	lattice *privilege.Lattice
}

// ProvenanceOptions configure OpenProvenance.
type ProvenanceOptions struct {
	// Path is the durable log file. Empty selects the in-memory backend
	// instead (contents die with the process).
	Path string
	// Sync makes every durable append fsync before returning.
	Sync bool
	// Lattice is the privilege lattice the store's Lowest nicknames refer
	// to; nil means the two-level Protected/Public lattice.
	Lattice *privilege.Lattice
}

// OpenProvenance opens (or creates) a provenance service over the backend
// the options select.
func OpenProvenance(opts ProvenanceOptions) (*Provenance, error) {
	lat := opts.Lattice
	if lat == nil {
		lat = privilege.TwoLevel()
	}
	var (
		backend plus.Backend
		err     error
	)
	if opts.Path != "" {
		backend, err = plus.Open(opts.Path, plus.Options{Sync: opts.Sync})
		if err != nil {
			return nil, fmt.Errorf("core: open provenance: %w", err)
		}
	} else {
		backend = plus.NewMemBackend(0)
	}
	return NewProvenance(backend, lat), nil
}

// NewProvenance wraps an already-open backend; Close still closes it.
func NewProvenance(backend plus.Backend, lat *privilege.Lattice) *Provenance {
	if lat == nil {
		lat = privilege.TwoLevel()
	}
	return &Provenance{
		backend: backend,
		engine:  plus.NewCachedEngine(plus.NewEngine(backend, lat)),
		query:   plusql.NewEngine(backend, lat),
		lattice: lat,
	}
}

// Backend exposes the underlying storage backend for ingestion.
func (p *Provenance) Backend() plus.Backend { return p.backend }

// Lattice returns the service's privilege lattice.
func (p *Provenance) Lattice() *privilege.Lattice { return p.lattice }

// Lineage answers one lineage query through the invalidating cache.
// Cancellation and deadlines on ctx propagate into the engine's closure
// walk; the request struct carries the query options.
func (p *Provenance) Lineage(ctx context.Context, req plus.Request) (*plus.Result, error) {
	return p.engine.LineageContext(ctx, req)
}

// Query answers one declarative PLUSQL query (see internal/plusql for the
// grammar). Results are drawn from the protected account of the current
// snapshot for opts.Viewer, so they never reveal what policy hides.
// Cancellation and deadlines on ctx propagate into view materialisation
// and the executor's join loop.
func (p *Provenance) Query(ctx context.Context, src string, opts plusql.Options) (*plusql.ResultSet, error) {
	return p.query.QueryContext(ctx, src, opts)
}

// Server wires the HTTP API around the service's engine, including the
// PLUSQL endpoint POST /v2/query and the cache counters in the
// /v1/healthz probe. Options
// pass through to the server — plus.WithObservability instruments both
// engines and exposes GET /v2/metrics; plus.WithAuth turns on token
// authentication.
func (p *Provenance) Server(opts ...plus.ServerOption) *plus.Server {
	srv := plus.NewCachedServer(p.engine, opts...)
	plusql.Attach(srv, p.query)
	return srv
}

// CacheStats bundles the delta-scoped cache counters of both query paths:
// the lineage answer cache (evictions scoped to the closures a write
// touches) and the PLUSQL protected-view cache (views advanced by
// change-feed deltas instead of rebuilt).
type CacheStats struct {
	Lineage plus.LineageCacheStats `json:"lineage"`
	Views   plusql.ViewCacheStats  `json:"views"`
}

// CacheStats reports the service's cache counters.
func (p *Provenance) CacheStats() CacheStats {
	return CacheStats{Lineage: p.engine.Stats(), Views: p.query.CacheStats()}
}

// CompareLineage fetches the full ancestry of start and protects it both
// ways (hide and surrogate) for the viewer, returning the paper's
// comparison measures. This is the "what would each strategy cost this
// consumer" question asked directly of stored provenance.
func (p *Provenance) CompareLineage(ctx context.Context, start string, viewer privilege.Predicate) (*Comparison, error) {
	if viewer == "" {
		viewer = privilege.Public
	}
	res, err := p.engine.LineageContext(ctx, plus.Request{
		Start:     start,
		Direction: graph.Backward,
		Viewer:    viewer,
	})
	if err != nil {
		return nil, err
	}
	return Compare(res.Spec, viewer)
}

// Close releases the backend.
func (p *Provenance) Close() error { return p.backend.Close() }

package plus

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/privilege"
)

// Server exposes a store and its cache-fronted query engine over HTTP,
// the v2 wire API (v2.go documents it). Every route is one Endpoint of
// the table NewCachedServer mounts:
//
//	method  pattern            caller       write  purpose
//	GET     /v1/healthz        anyone              readiness probe (store open, counts, revision)
//	POST    /v2/sessions       any principal       mint a stateless signed session token
//	POST    /v2/batch          ingest       yes    atomic ingest of objects, edges, surrogates
//	GET     /v2/changes        replicate           NDJSON change feed with durable cursors
//	GET     /v2/snapshot       replicate           full store at one revision (resync payload)
//	GET     /v2/lineage        query               protected lineage query (see LineageResponse)
//	GET     /v2/objects/{id}   query               principal-scoped point read
//	POST    /v2/compact        admin        yes    rewrite the durable log to live records
//	GET     /v2/opm            replicate           export an OPM document
//	POST    /v2/opm            ingest       yes    import an OPM document
//	GET     /v2/metrics        admin               metrics registry (text or ?format=json)
//	GET     /v2/slowlog        admin               slow-query ring, oldest first
//
// plusql.Attach mounts POST /v2/query (query). The capability model
// (auth.go) documents the trust surface.
type Server struct {
	// engine answers lineage queries; store and lattice are the backend
	// and the privilege lattice of the engine it fronts, which every other
	// route reads.
	engine  *CachedEngine
	store   Backend
	lattice *privilege.Lattice
	mux     *http.ServeMux
	routes  []*route
	auth    AuthConfig

	// keyring is the live token keyring, swapped atomically so plusd's
	// SIGHUP reload rotates keys with zero downtime: requests in flight
	// keep the ring they resolved, new requests see the new one.
	keyring atomic.Pointer[Keyring]

	// obs is the telemetry bundle (WithObservability); never nil after
	// newServer, with every sink disabled by default.
	obs *Observability

	// queryStats, when set (SetQueryStats), surfaces the PLUSQL view-cache
	// counters in the healthz payload without this package importing the
	// query subsystem.
	queryStats func() QueryCacheHealth

	// readOnly is the follower-mode write policy (WithReadOnly): refuse
	// or proxy mutations so only the replication loop writes the store.
	readOnly readOnly

	// replicaHealth, when set (WithReplicaHealth), supplies the healthz
	// replication block without this package importing internal/replica.
	replicaHealth func() *ReplicaHealth
}

// ServerOption configures NewServer/NewCachedServer.
type ServerOption func(*Server)

// WithAuth installs the server's trust configuration: the token keyring,
// whether authentication is required, the anonymous read-only escape
// hatch, and session lifetimes. Without it the server runs in the legacy
// open mode (AuthConfig zero value).
func WithAuth(cfg AuthConfig) ServerOption {
	return func(s *Server) { s.auth = cfg }
}

// NewServer wires the HTTP handlers around an engine, fronted by a
// lineage cache (NewCachedEngine).
func NewServer(engine *Engine, opts ...ServerOption) *Server {
	return NewCachedServer(NewCachedEngine(engine), opts...)
}

// NewCachedServer wires the handlers around a cache-fronted engine;
// lineage answers are memoised until the store changes.
func NewCachedServer(engine *CachedEngine, opts ...ServerOption) *Server {
	s := &Server{engine: engine, store: engine.engine.Backend(), lattice: engine.engine.Lattice(), mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.auth = s.auth.normalize()
	s.keyring.Store(s.auth.Keyring)
	if s.obs == nil {
		s.obs = NewObservability(nil, nil, nil)
	}
	if s.obs.Registry() != nil || s.obs.SlowQueryLog() != nil {
		engine.engine.SetObservability(s.obs)
	}
	s.registerServerMetrics()
	for _, e := range []Endpoint{
		{"/v1/healthz", http.MethodGet, anyone, false, s.serveHealthz},
		{"/v2/sessions", http.MethodPost, anyPrincipal, false, s.serveSessions},
		{"/v2/batch", http.MethodPost, CapIngest, true, s.serveBatch},
		{"/v2/changes", http.MethodGet, CapReplicate, false, s.serveChanges},
		{"/v2/snapshot", http.MethodGet, CapReplicate, false, s.serveSnapshot},
		{"/v2/lineage", http.MethodGet, CapQuery, false, s.serveLineage},
		{"/v2/objects/", http.MethodGet, CapQuery, false, s.serveObject},
		{"/v2/compact", http.MethodPost, CapAdmin, true, s.serveCompact},
		{"/v2/opm", http.MethodGet, CapReplicate, false, s.serveOPMExport},
		{"/v2/opm", http.MethodPost, CapIngest, true, s.serveOPMImport},
		{"/v2/metrics", http.MethodGet, CapAdmin, false, s.serveMetrics},
		{"/v2/slowlog", http.MethodGet, CapAdmin, false, s.serveSlowlog},
	} {
		s.Mount(e)
	}
	return s
}

// Endpoint is one route of the API, declared once: its pattern and
// method, what the caller must be, whether it writes, and how it is
// served. Every endpoint goes through the same dispatcher (route's
// ServeHTTP), so no serve function checks its method, gates a write,
// authorizes or writes its own error.
type Endpoint struct {
	Pattern string
	Method  string
	// Need is the capability the caller must hold. Two values are open
	// to this package's own routes only: anyPrincipal (a resolved
	// principal, no capability) and anyone (no principal at all).
	Need Capability
	// Write marks a mutation, which a follower refuses (or proxies)
	// before authorization (WithReadOnly).
	Write bool
	// Serve answers an authorized request for principal p. A returned
	// error is written as the structured body unless Serve has already
	// started the response.
	Serve func(w http.ResponseWriter, r *http.Request, p Principal) *APIError
}

// The caller requirements that are not a capability.
const (
	// anyPrincipal: a resolved principal, whatever it may do (minting a
	// session only ever attenuates the caller's own).
	anyPrincipal Capability = "(principal)"
	// anyone: no principal is resolved (the readiness probe).
	anyone Capability = "(anyone)"
)

// route is one mux pattern and the endpoints mounted on it, one per
// method; allow is their methods in mount order (the 405's Allow).
type route struct {
	s         *Server
	pattern   string
	endpoints []Endpoint
	allow     string
}

// Mount adds an endpoint to the server's table; higher layers (PLUSQL's
// POST /v2/query) extend the API through it without this package
// importing them. Mount before serving: the table is read without a
// lock. It panics on an endpoint that names no known capability (or
// neither anyone nor anyPrincipal) and on a method its pattern already
// serves.
func (s *Server) Mount(e Endpoint) {
	if !capsHave(AllCapabilities(), e.Need) && e.Need != anyPrincipal && e.Need != anyone {
		panic(fmt.Sprintf("plus: endpoint %s %s needs unknown capability %q", e.Method, e.Pattern, e.Need))
	}
	var rt *route
	for _, have := range s.routes {
		if have.pattern == e.Pattern {
			rt = have
		}
	}
	if rt == nil {
		rt = &route{s: s, pattern: e.Pattern}
		s.routes = append(s.routes, rt)
		s.mux.Handle(e.Pattern, rt)
	}
	var methods []string
	for _, have := range rt.endpoints {
		if have.Method == e.Method {
			panic(fmt.Sprintf("plus: endpoint %s %s mounted twice", e.Method, e.Pattern))
		}
		methods = append(methods, have.Method)
	}
	rt.endpoints = append(rt.endpoints, e)
	rt.allow = strings.Join(append(methods, e.Method), ", ")
}

// ServeHTTP is the dispatcher, the one path every routed request takes:
//
//  1. a method the pattern does not serve gets the structured 405 with
//     the pattern's methods in Allow;
//  2. a write on a follower is refused or proxied (gateWrite), before
//     authorization;
//  3. the caller is resolved and authorized (just resolved for
//     anyPrincipal, neither for anyone);
//  4. the endpoint is served;
//  5. a returned error is written, unless the response has started.
//
// It also names the route for serveObserved's metrics.
func (rt *route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s, sw := rt.s, w.(*statusWriter) // serveObserved is the mux's only caller
	sw.route = rt.pattern
	var e *Endpoint
	for i := range rt.endpoints {
		if rt.endpoints[i].Method == r.Method {
			e = &rt.endpoints[i]
		}
	}
	if e == nil {
		w.Header().Set("Allow", rt.allow)
		WriteAPIError(w, v2Errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "plus: method not allowed"))
		return
	}
	if e.Write && s.gateWrite(w, r) {
		return
	}
	var p Principal
	var apiErr *APIError
	if e.Need != anyone {
		p, apiErr = s.principal(r)
		if e.Need != anyPrincipal {
			apiErr = s.authorize(p, apiErr, e.Need)
		}
	}
	if apiErr == nil {
		apiErr = e.Serve(w, r, p)
	}
	if apiErr != nil && !sw.wrote {
		WriteAPIError(w, apiErr)
	}
}

// ServeHTTP implements http.Handler through the observability middleware:
// every request gets a trace ID, route metrics and (when configured) a
// structured log line on its way into the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.serveObserved(w, r) }

// Keyring returns the live token keyring.
func (s *Server) Keyring() *Keyring { return s.keyring.Load() }

// ReloadKeyringFromFile re-reads an "id:secret"-per-line keyring file and
// swaps it in without restarting — plusd's SIGHUP handler. A parse
// failure leaves the current keyring serving and is reported (and
// counted) rather than applied.
func (s *Server) ReloadKeyringFromFile(path string) error {
	kr, err := LoadKeyring(path)
	if err != nil {
		s.obs.keyringLoads.With("error").Inc()
		return err
	}
	s.keyring.Store(kr)
	s.obs.keyringLoads.With("ok").Inc()
	return nil
}

// SetQueryStats registers the provider of the query-subsystem view-cache
// counters rendered in healthz (plusql.Attach wires it).
func (s *Server) SetQueryStats(fn func() QueryCacheHealth) { s.queryStats = fn }

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds POST /v2/sessions bodies; a session request is a
// few fields, so anything near a megabyte is malformed or hostile.
const maxBodyBytes = 1 << 20

// DecodeJSONBody decodes a JSON request body under the API's shared
// conventions: a hard size cap and unknown fields rejected. Extension
// handlers (e.g. PLUSQL's /v2/query) use it so request parsing stays
// uniform across every endpoint.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("plus: bad request body: %w", err)
	}
	return nil
}

// LineageNode is one node of a lineage answer.
type LineageNode struct {
	ID        string            `json:"id"`
	Features  map[string]string `json:"features,omitempty"`
	Surrogate bool              `json:"surrogate,omitempty"`
}

// LineageEdge is one edge of a lineage answer.
type LineageEdge struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Label     string `json:"label,omitempty"`
	Surrogate bool   `json:"surrogate,omitempty"`
}

// LineageTiming reports the Figure 10 decomposition in microseconds.
type LineageTiming struct {
	DBAccessUS int64 `json:"dbAccessUs"`
	BuildUS    int64 `json:"buildUs"`
	ProtectUS  int64 `json:"protectUs"`
	TotalUS    int64 `json:"totalUs"`
}

// LineageResponse is the JSON answer to a lineage query.
type LineageResponse struct {
	Start string `json:"start"`
	// StartName echoes a name-seeded (multi-seed) request.
	StartName   string        `json:"startName,omitempty"`
	Viewer      string        `json:"viewer"`
	Mode        string        `json:"mode"`
	Nodes       []LineageNode `json:"nodes"`
	Edges       []LineageEdge `json:"edges"`
	PathUtility float64       `json:"pathUtility"`
	NodeUtility float64       `json:"nodeUtility"`
	Timing      LineageTiming `json:"timing"`
}

func parseDirection(s string) (graph.Direction, error) {
	switch s {
	case "", "ancestors":
		return graph.Backward, nil
	case "descendants":
		return graph.Forward, nil
	case "both":
		return graph.Undirected, nil
	default:
		return 0, fmt.Errorf("plus: unknown direction %q", s)
	}
}

// ChangeFeedHealth reports the change feed's retention state: the
// backend epoch and revision a cursor must match, and the resident
// window (base/depth/horizon). A follower holding cursor rev r computes
// its lag as Revision-r and knows it must resync once r < Base.
type ChangeFeedHealth struct {
	Epoch    string `json:"epoch"`
	Revision uint64 `json:"revision"`
	FeedWindow
}

// QueryCacheHealth reports the PLUSQL protected-view cache counters
// (plusql.Engine.CacheStats); it lives here so the healthz payload stays
// typed without an import cycle.
type QueryCacheHealth struct {
	// Views is the live cached view count.
	Views int `json:"views"`
	// Hits / Misses count view lookups: a miss is a lookup that had to
	// refresh the view (advance or build) itself; a lookup that waited
	// for another query's refresh of the same revision is a hit.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Advanced counts views refreshed by patching in what the delta
	// added; AdvanceRebuilds counts advances where the spec moved
	// incrementally but the account had to be regenerated.
	Advanced        uint64 `json:"advanced"`
	AdvanceRebuilds uint64 `json:"advanceRebuilds"`
	// FullBuilds counts views built from scratch off a snapshot;
	// Fallbacks counts advance attempts abandoned (feed too far behind,
	// delta failed to apply).
	FullBuilds uint64 `json:"fullBuilds"`
	Fallbacks  uint64 `json:"fallbacks"`
}

// HealthzResponse is the readiness-probe answer: whether the backend is
// open plus the live counts, revision and cache/delta activity a
// deployment can alert on.
type HealthzResponse struct {
	Status   string `json:"status"` // "ok" or "unavailable"
	Objects  int    `json:"objects"`
	Edges    int    `json:"edges"`
	Revision uint64 `json:"revision"`
	// Index reports the record table's name postings.
	Index *IndexStats `json:"index,omitempty"`
	// LineageCache reports the delta-scoped lineage answer cache.
	LineageCache *LineageCacheStats `json:"lineageCache,omitempty"`
	// QueryCache reports the PLUSQL protected-view cache (present when
	// the query subsystem is attached).
	QueryCache *QueryCacheHealth `json:"queryCache,omitempty"`
	// ChangeFeed reports feed retention state (epoch, revision, resident
	// window) so followers can compute lag without guessing.
	ChangeFeed *ChangeFeedHealth `json:"changeFeed,omitempty"`
	// Replica reports replication state (present only on followers).
	Replica *ReplicaHealth `json:"replica,omitempty"`
}

func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request, _ Principal) *APIError {
	b := s.store
	if err := b.Ping(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, HealthzResponse{
			Status:   "unavailable",
			Revision: b.Revision(),
		})
		return nil
	}
	resp := HealthzResponse{
		Status:   "ok",
		Objects:  b.NumObjects(),
		Edges:    b.NumEdges(),
		Revision: b.Revision(),
	}
	ix := b.IndexStats()
	resp.Index = &ix
	lc := s.engine.Stats()
	resp.LineageCache = &lc
	if s.queryStats != nil {
		st := s.queryStats()
		resp.QueryCache = &st
	}
	resp.ChangeFeed = &ChangeFeedHealth{Epoch: b.Epoch(), Revision: b.Revision(), FeedWindow: b.ChangeWindow()}
	if s.replicaHealth != nil {
		resp.Replica = s.replicaHealth()
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

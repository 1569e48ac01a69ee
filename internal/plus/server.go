package plus

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/intern"
)

// lineageAnswerer lets the server run against either a plain Engine or a
// CachedEngine; handlers always pass the request context so cancellation
// propagates into the closure walk.
type lineageAnswerer interface {
	LineageContext(context.Context, Request) (*Result, error)
}

// Server exposes a store and its query engine over HTTP with a small JSON
// API, the v2 wire API (v2.go documents it):
//
//	POST     /v2/sessions       mint a stateless signed session token
//	POST     /v2/batch          atomic ingest of objects, edges, surrogates
//	GET      /v2/changes        NDJSON change feed with durable cursors
//	GET      /v2/snapshot       full store at one revision (resync payload)
//	GET      /v2/lineage        protected lineage query (see LineageResponse)
//	GET      /v2/objects/{id}   principal-scoped point read
//	POST     /v2/compact        rewrite the durable log to live records
//	GET|POST /v2/opm            export / import an OPM document
//	GET      /v2/metrics        metrics registry (text or ?format=json)
//	GET      /v2/slowlog        slow-query ring
//	GET      /v1/healthz        readiness probe (store open, counts, revision)
//
// plusql.Attach adds POST /v2/query. Every route except the healthz probe
// resolves its caller through the capability model (auth.go documents the
// trust surface).
type Server struct {
	engine   *Engine
	answerer lineageAnswerer
	mux      *http.ServeMux
	auth     AuthConfig

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

// NewServer wires the HTTP handlers around an engine.
func NewServer(engine *Engine, opts ...ServerOption) *Server {
	return newServer(engine, engine, opts...)
}

// NewCachedServer wires the handlers around a cache-fronted engine;
// lineage answers are memoised until the store changes.
func NewCachedServer(engine *CachedEngine, opts ...ServerOption) *Server {
	return newServer(engine.Engine, engine, opts...)
}

func newServer(engine *Engine, answerer lineageAnswerer, opts ...ServerOption) *Server {
	s := &Server{engine: engine, answerer: answerer, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.auth = s.auth.normalize()
	s.keyring.Store(s.auth.Keyring)
	if s.obs == nil {
		s.obs = NewObservability(nil, nil, nil)
	}
	if s.obs.Registry() != nil || s.obs.SlowQueryLog() != nil {
		s.engine.SetObservability(s.obs)
	}
	s.registerServerMetrics()
	s.Handle("/v1/healthz", http.HandlerFunc(s.handleHealthz))
	s.Handle("/v2/sessions", http.HandlerFunc(s.handleV2Sessions))
	s.Handle("/v2/batch", http.HandlerFunc(s.handleV2Batch))
	s.Handle("/v2/changes", http.HandlerFunc(s.handleV2Changes))
	s.Handle("/v2/snapshot", http.HandlerFunc(s.handleV2Snapshot))
	s.Handle("/v2/lineage", http.HandlerFunc(s.handleV2Lineage))
	s.Handle("/v2/objects/", http.HandlerFunc(s.handleV2ObjectByID))
	s.Handle("/v2/compact", http.HandlerFunc(s.handleV2Compact))
	s.Handle("/v2/opm", http.HandlerFunc(s.handleV2OPM))
	s.Handle("/v2/metrics", http.HandlerFunc(s.handleV2Metrics))
	s.Handle("/v2/slowlog", http.HandlerFunc(s.handleV2Slowlog))
	return s
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

// Handle registers an additional route on the server's mux, letting
// higher layers (e.g. the PLUSQL query subsystem) extend the API without
// this package importing them.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// SetQueryStats registers the provider of the query-subsystem view-cache
// counters rendered in healthz (plusql.Attach wires it).
func (s *Server) SetQueryStats(fn func() QueryCacheHealth) { s.queryStats = fn }

// MethodNotAllowed writes the API's structured 405 (code
// "method_not_allowed") with an Allow header listing the admissible
// methods.
func MethodNotAllowed(w http.ResponseWriter, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	WriteAPIError(w, v2Errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "plus: method not allowed"))
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds POST /v2/sessions bodies; a session request is a
// few fields, so anything near a megabyte is malformed or hostile.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	return DecodeJSONBody(w, r, maxBodyBytes, v)
}

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
	// Base is the oldest change-feed position the backend can still
	// serve; Depth is the resident change count; Horizon the configured
	// retention capacity.
	Base    uint64 `json:"base"`
	Depth   int    `json:"depth"`
	Horizon int    `json:"horizon"`
}

// changeFeedHealth assembles the block (nil when the backend exposes no
// window introspection).
func (s *Server) changeFeedHealth() *ChangeFeedHealth {
	b := s.engine.store
	w, ok := backendChangeWindow(b)
	if !ok {
		return nil
	}
	return &ChangeFeedHealth{
		Epoch:    b.Epoch(),
		Revision: b.Revision(),
		Base:     w.Base,
		Depth:    w.Depth,
		Horizon:  w.Horizon,
	}
}

// QueryCacheHealth mirrors the PLUSQL view-cache counters
// (plusql.ViewCacheStats) in the healthz payload; it lives here so the
// probe response stays typed without an import cycle.
type QueryCacheHealth struct {
	Views           int    `json:"views"`
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Advanced        uint64 `json:"advanced"`
	AdvanceRebuilds uint64 `json:"advanceRebuilds"`
	FullBuilds      uint64 `json:"fullBuilds"`
	Fallbacks       uint64 `json:"fallbacks"`
}

// InternHealth reports the global string-intern table: how many distinct
// strings the store's kinds, names and features collapsed into, and the
// bytes they occupy.
type InternHealth struct {
	Strings int   `json:"strings"`
	Bytes   int64 `json:"bytes"`
}

// HealthzResponse is the readiness-probe answer: whether the backend is
// open plus the live counts, revision and cache/delta activity a
// deployment can alert on.
type HealthzResponse struct {
	Status   string `json:"status"` // "ok" or "unavailable"
	Objects  int    `json:"objects"`
	Edges    int    `json:"edges"`
	Revision uint64 `json:"revision"`
	// Index reports the record table's name postings (present when the
	// backend is built on the table).
	Index *IndexStats `json:"index,omitempty"`
	// Intern reports the global string-intern table.
	Intern *InternHealth `json:"intern,omitempty"`
	// LineageCache reports the delta-scoped lineage answer cache (present
	// when the server fronts a CachedEngine).
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		MethodNotAllowed(w, http.MethodGet)
		return
	}
	b := s.engine.store
	if err := b.Ping(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, HealthzResponse{
			Status:   "unavailable",
			Revision: b.Revision(),
		})
		return
	}
	resp := HealthzResponse{
		Status:   "ok",
		Objects:  b.NumObjects(),
		Edges:    b.NumEdges(),
		Revision: b.Revision(),
	}
	if ip, ok := unwrapBackend(b).(storeStatsProvider); ok {
		st := ip.IndexStats()
		resp.Index = &st
	}
	resp.Intern = &InternHealth{Strings: intern.Count(), Bytes: intern.Bytes()}
	if ce, ok := s.answerer.(*CachedEngine); ok {
		st := ce.Stats()
		resp.LineageCache = &st
	}
	if s.queryStats != nil {
		st := s.queryStats()
		resp.QueryCache = &st
	}
	resp.ChangeFeed = s.changeFeedHealth()
	if s.replicaHealth != nil {
		resp.Replica = s.replicaHealth()
	}
	writeJSON(w, http.StatusOK, resp)
}

package plus

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file wires the obs substrate into the PLUS server: the request
// middleware (trace IDs, route metrics, structured request logs), the
// GET /v2/metrics and GET /v2/slowlog admin endpoints, the backend
// operation latency hook (NewObserveBackend), and the registration of
// store/change-feed/cache gauges. The instrumentation contract throughout
// is "nil means off": every handle below is nil-safe, so a server built
// without WithObservability pays a nil check per site and nothing else.

// HeaderRequestID re-exports the trace header so API callers need not
// import the obs package.
const HeaderRequestID = obs.HeaderRequestID

// FeedWindow describes a backend's resident change-feed window: the
// oldest position ChangesSince can still serve (Base — a cursor at or
// after it resumes, one before it gets the 410 resync), the resident
// change count and the configured capacity. Both backends report it;
// followers use it to compute lag without guessing.
type FeedWindow struct {
	Base    uint64 `json:"base"`
	Depth   int    `json:"depth"`
	Horizon int    `json:"horizon"`
}

// Observability bundles the server's telemetry sinks: the metric
// registry, the slow-query ring and the structured request logger. A nil
// *Observability (the default) disables everything.
type Observability struct {
	reg  *obs.Registry
	slow *obs.SlowLog
	log  *slog.Logger

	// Handles pre-registered at construction so request paths never
	// touch the registry's maps beyond the per-series lookup.
	httpRequests *obs.CounterVec   // route, method, status
	httpLatency  *obs.HistogramVec // route
	httpBytes    *obs.HistogramVec // route
	authz        *obs.CounterVec   // cap, outcome
	tokenVerify  *obs.CounterVec   // outcome
	batchRecords *obs.Histogram
	slowQueries  *obs.CounterVec // kind
	keyringLoads *obs.CounterVec // outcome
}

// NewObservability builds the telemetry bundle. Any argument may be nil:
// a nil registry disables metrics, a nil slow log disables slow-query
// capture, a nil logger disables request logs.
func NewObservability(reg *obs.Registry, slow *obs.SlowLog, logger *slog.Logger) *Observability {
	o := &Observability{reg: reg, slow: slow, log: logger}
	o.httpRequests = reg.CounterVec("plus_http_requests_total",
		"HTTP requests served, by mux route, method and status.", "route", "method", "status")
	o.httpLatency = reg.HistogramVec("plus_http_request_seconds",
		"HTTP request latency by mux route.", obs.ScaleNanos, "route")
	o.httpBytes = reg.HistogramVec("plus_http_response_bytes",
		"HTTP response body size by mux route.", 1, "route")
	o.authz = reg.CounterVec("plus_authz_total",
		"Authorization decisions by required capability and outcome.", "cap", "outcome")
	o.tokenVerify = reg.CounterVec("plus_token_verify_total",
		"Session token verifications by outcome.", "outcome")
	o.batchRecords = reg.Histogram("plus_batch_records",
		"Records per POST /v2/batch ingest unit.", 1)
	o.slowQueries = reg.CounterVec("plus_slow_queries_total",
		"Queries recorded in the slow-query log, by engine kind.", "kind")
	o.keyringLoads = reg.CounterVec("plus_keyring_reloads_total",
		"SIGHUP keyring reloads by outcome.", "outcome")
	return o
}

// Registry exposes the metric registry (nil when observability is off);
// subsystems (plusql.Attach, the daemons) register their own series on
// it.
func (o *Observability) Registry() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// SlowQueryLog exposes the slow-query ring (nil when disabled).
func (o *Observability) SlowQueryLog() *obs.SlowLog {
	if o == nil {
		return nil
	}
	return o.slow
}

// RecordSlowQuery funnels one engine-built entry into the slow log and
// counts it; engines call it instead of touching the ring directly so
// the counter and the ring never disagree.
func (o *Observability) RecordSlowQuery(e obs.SlowEntry) {
	if o == nil {
		return
	}
	if o.slow.Record(e) {
		o.slowQueries.With(e.Kind).Inc()
	}
}

// WithObservability installs the server's telemetry bundle: request
// middleware metrics and logs, GET /v2/metrics, GET /v2/slowlog, and the
// store/change-feed/cache gauges.
func WithObservability(o *Observability) ServerOption {
	return func(s *Server) { s.obs = o }
}

// Observability returns the server's telemetry bundle (nil when not
// configured).
func (s *Server) Observability() *Observability { return s.obs }

// statusWriter captures the route that served a request (set by the
// dispatcher) and the status and body size it produced, and whether the
// response has started. It forwards Flush so the /v2/changes NDJSON
// stream keeps flushing through the middleware, and Unwrap for
// http.ResponseController users.
type statusWriter struct {
	http.ResponseWriter
	route  string
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	w.status, w.wrote = status, true
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// serveObserved is the request middleware: it resolves the trace ID
// (client-supplied or freshly minted), echoes it on the response,
// propagates it via context into the engines, and records the route's
// latency/status/bytes plus a structured request log line.
func (s *Server) serveObserved(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get(obs.HeaderRequestID)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.HeaderRequestID, reqID)
	r = r.WithContext(obs.WithRequestID(r.Context(), reqID))

	// The label is the dispatched route's pattern, not the raw path:
	// bounded cardinality regardless of what clients request.
	sw := &statusWriter{ResponseWriter: w, route: "unmatched", status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	route := sw.route
	o := s.obs
	o.httpRequests.With(route, r.Method, strconv.Itoa(sw.status)).Inc()
	o.httpLatency.With(route).ObserveSince(start)
	o.httpBytes.With(route).Observe(sw.bytes)
	if o != nil && o.log != nil {
		o.log.Info("request",
			"id", reqID,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.status,
			"bytes", sw.bytes,
			"durUs", time.Since(start).Microseconds(),
			"remote", r.RemoteAddr,
		)
	}
}

// processStart is when this process loaded the package: the zero point of
// plus_uptime_seconds.
var processStart = time.Now()

// registerServerMetrics installs the render-time gauges over state that
// already lives in the store and caches. Called from newServer once the
// engine is bound; a nil registry makes every call a no-op.
func (s *Server) registerServerMetrics() {
	reg := s.obs.Registry()
	if reg == nil {
		return
	}
	b := s.store
	reg.GaugeFunc("plus_store_objects", "Live objects in the store.",
		func() float64 { return float64(b.NumObjects()) })
	reg.GaugeFunc("plus_store_edges", "Live edges in the store.",
		func() float64 { return float64(b.NumEdges()) })
	reg.GaugeFunc("plus_store_revision", "Current backend revision.",
		func() float64 { return float64(b.Revision()) })
	reg.GaugeFunc("plus_store_log_bytes", "Durable footprint in bytes (0 for volatile backends).",
		func() float64 { return float64(b.Size()) })
	reg.GaugeFunc("plus_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(processStart).Seconds() })
	reg.GaugeFunc("plus_changefeed_base_revision",
		"Oldest change-feed position the backend can still serve.",
		func() float64 { return float64(b.ChangeWindow().Base) })
	reg.GaugeFunc("plus_changefeed_ring_depth",
		"Resident change-feed entries.",
		func() float64 { return float64(b.ChangeWindow().Depth) })
	reg.GaugeFunc("plus_changefeed_horizon",
		"Configured change-feed retention capacity.",
		func() float64 { return float64(b.ChangeWindow().Horizon) })
	reg.CounterFunc("plus_notify_wakeups_total",
		"Change-feed notifier broadcasts that woke parked followers.",
		func() float64 { return float64(b.Wakeups()) })
	reg.CounterFunc("plus_store_snapshots_built_total",
		"Snapshots built (one per revision a reader asked at); none copies records.",
		func() float64 { return float64(b.StoreStats().SnapshotsBuilt) })
	reg.CounterFunc("plus_store_bucket_copies_total",
		"Record-table buckets a write copied because a snapshot still shared them.",
		func() float64 { return float64(b.StoreStats().BucketCopies) })
	reg.CounterFunc("plus_store_records_copied_total",
		"Records (objects, per-id adjacency and surrogate lists, name postings) in those copied buckets.",
		func() float64 { return float64(b.StoreStats().RecordsCopied) })
	reg.GaugeFuncVec("plus_index_entries",
		"Record-table postings by index (name: one per named object).", "index").
		Register(func() float64 { return float64(b.IndexStats().NameEntries) }, "name")
	reg.CounterFunc("plus_index_hits_total",
		"Name lookups (Snapshot.FindByName) answered from the postings.",
		func() float64 { return float64(b.IndexStats().Hits) })
	ce := s.engine
	reg.GaugeFunc("plus_lineage_cache_entries", "Cached lineage answers.",
		func() float64 { return float64(ce.Stats().Entries) })
	reg.GaugeFunc("plus_lineage_cache_closure_nodes",
		"Closure nodes held by the cached lineage answers (what the cache bound counts).",
		func() float64 { return float64(ce.Stats().ClosureNodes) })
	reg.CounterFunc("plus_lineage_cache_hits_total", "Lineage cache hits.",
		func() float64 { return float64(ce.Stats().Hits) })
	reg.CounterFunc("plus_lineage_cache_misses_total", "Lineage cache misses.",
		func() float64 { return float64(ce.Stats().Misses) })
	reg.CounterFunc("plus_lineage_cache_delta_evictions_total",
		"Lineage cache entries evicted by change-feed deltas.",
		func() float64 { return float64(ce.Stats().DeltaEvictions) })
	reg.CounterFunc("plus_lineage_cache_capacity_evictions_total",
		"Lineage cache entries evicted least-recently-served-first to stay inside the closure-node budget.",
		func() float64 { return float64(ce.Stats().CapacityEvictions) })
	reg.CounterFunc("plus_lineage_cache_wipes_total",
		"Lineage cache full invalidations.",
		func() float64 { return float64(ce.Stats().Wipes) })
}

// serveMetrics serves the registry: Prometheus text exposition by
// default, the JSON snapshot with ?format=json (what plusctl top polls).
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request, _ Principal) *APIError {
	reg := s.obs.Registry()
	switch r.URL.Query().Get("format") {
	case "", "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = reg.WritePrometheus(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = reg.WriteJSON(w)
	default:
		return v2Errorf(http.StatusBadRequest, CodeBadRequest,
			"plus: unknown metrics format %q (want prometheus or json)", r.URL.Query().Get("format"))
	}
	return nil
}

// serveSlowlog serves the slow-query ring, oldest first.
func (s *Server) serveSlowlog(w http.ResponseWriter, _ *http.Request, _ Principal) *APIError {
	entries := s.obs.SlowQueryLog().Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, entries)
	return nil
}

// NewObserveBackend makes b record the latency of Apply, GetObject,
// ChangesSince and Snapshot into reg's plus_backend_op_seconds{op} and
// returns b. Read paths that must stay lock-free and allocation-free
// (Revision, Epoch, Notify, Ping) are not timed: their cost is below timer
// resolution and they run on every long-poll loop. A nil registry leaves b
// unobserved.
func NewObserveBackend(b Backend, reg *obs.Registry) Backend {
	if reg != nil {
		b.observeOps(reg.HistogramVec("plus_backend_op_seconds",
			"Storage backend operation latency by operation.", obs.ScaleNanos, "op"))
	}
	return b
}

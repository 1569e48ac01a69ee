package plusql

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/plus"
	"repro/internal/privilege"
)

// QueryRequest is the body of POST /v2/query. The viewer is not a field:
// it is the request principal.
type QueryRequest struct {
	// Query is the PLUSQL source text.
	Query string `json:"query"`
	// Mode is "surrogate" (default) or "hide".
	Mode string `json:"mode,omitempty"`
	// Limit caps result rows in addition to the query's own limit.
	Limit int `json:"limit,omitempty"`
	// Explain attaches the executed plan to the response.
	Explain bool `json:"explain,omitempty"`
}

// QueryResponse is the answer to POST /v2/query.
type QueryResponse struct {
	Query  string      `json:"query"`
	Viewer string      `json:"viewer"`
	Mode   string      `json:"mode"`
	Vars   []string    `json:"vars"`
	Rows   [][]Binding `json:"rows"`
	// Truncated reports that more rows were available than returned —
	// the request's limit (or the server's cap) cut the enumeration
	// short. The query's own in-text "limit" never sets it.
	Truncated bool      `json:"truncated,omitempty"`
	Plan      string    `json:"plan,omitempty"`
	Stats     ExecStats `json:"stats"`
	// Phases is the engine's per-phase timing decomposition.
	Phases *PhaseTimings `json:"phases,omitempty"`
	TookUS int64         `json:"tookUs"`
}

// serverMaxRows bounds response sizes for unlimited queries over big
// stores; clients page with explicit limits.
const serverMaxRows = 10000

// maxQueryBytes bounds POST /v2/query bodies; query text is tiny.
const maxQueryBytes = 1 << 16

// serveQuery answers POST /v2/query for an authorized principal. The
// viewer travels as the request principal (X-Plus-Viewer header or
// session token), never in the body: a body naming one is rejected as an
// unknown field. Parse errors carry their line:column position in the
// message.
func (e *Engine) serveQuery(w http.ResponseWriter, r *http.Request, p plus.Principal) *plus.APIError {
	var req QueryRequest
	if err := plus.DecodeJSONBody(w, r, maxQueryBytes, &req); err != nil {
		return &plus.APIError{Status: http.StatusBadRequest, Code: plus.CodeBadRequest, Message: err.Error()}
	}
	if req.Query == "" {
		return &plus.APIError{Status: http.StatusBadRequest, Code: plus.CodeBadRequest, Message: "plusql: empty query"}
	}
	limit := req.Limit
	if limit <= 0 || limit > serverMaxRows {
		limit = serverMaxRows
	}
	t0 := time.Now()
	// Ask for one row beyond the cap so a full page is
	// distinguishable from a truncated one.
	rs, err := e.QueryContext(r.Context(), req.Query, Options{
		Viewer:  p.Viewer,
		Mode:    plus.Mode(req.Mode),
		MaxRows: limit + 1,
		Explain: req.Explain,
	})
	if err != nil {
		// Request faults are 400; backend/materialisation faults are
		// the server's problem.
		apiErr := &plus.APIError{Status: http.StatusInternalServerError, Code: plus.CodeInternal, Message: err.Error()}
		switch {
		case IsClientError(err):
			apiErr.Status, apiErr.Code = http.StatusBadRequest, plus.CodeBadRequest
		case errors.Is(err, plus.ErrClosed):
			apiErr.Status, apiErr.Code = http.StatusServiceUnavailable, plus.CodeUnavailable
		}
		return apiErr
	}
	respViewer := string(p.Viewer)
	if respViewer == "" {
		respViewer = string(privilege.Public)
	}
	mode := req.Mode
	if mode == "" {
		mode = string(plus.ModeSurrogate)
	}
	truncated := false
	if len(rs.Rows) > limit {
		rs.Rows = rs.Rows[:limit]
		rs.Stats.Rows = limit
		truncated = true
	}
	resp := QueryResponse{
		Query:     req.Query,
		Viewer:    respViewer,
		Mode:      mode,
		Vars:      rs.Vars,
		Rows:      rs.Rows,
		Truncated: truncated,
		Plan:      rs.Plan,
		Stats:     rs.Stats,
		Phases:    rs.Phases,
		TookUS:    time.Since(t0).Microseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(resp)
	return nil
}

// Attach mounts the principal-scoped query endpoint POST /v2/query (the
// query capability) on a plus server, wires the view-cache counters into
// its healthz payload, and — when the server is observable — instruments
// the engine (plus_plusql_seconds{phase}, slow-query capture) and exposes
// the view-cache counters as plus_query_view_* metrics.
func Attach(s *plus.Server, e *Engine) {
	s.Mount(plus.Endpoint{Pattern: "/v2/query", Method: http.MethodPost, Need: plus.CapQuery, Serve: e.serveQuery})
	s.SetQueryStats(e.CacheStats)
	o := s.Observability()
	e.SetObservability(o)
	if reg := o.Registry(); reg != nil {
		reg.GaugeFunc("plus_query_view_cache_entries",
			"Live cached protected views.",
			func() float64 { return float64(e.CacheStats().Views) })
		reg.CounterFunc("plus_query_view_hits_total",
			"Protected-view cache hits.",
			func() float64 { return float64(e.CacheStats().Hits) })
		reg.CounterFunc("plus_query_view_misses_total",
			"Protected-view cache misses.",
			func() float64 { return float64(e.CacheStats().Misses) })
		reg.CounterFunc("plus_query_view_advanced_total",
			"Views refreshed in place by a change-feed delta.",
			func() float64 { return float64(e.CacheStats().Advanced) })
		reg.CounterFunc("plus_query_view_full_builds_total",
			"Views built from scratch off a snapshot.",
			func() float64 { return float64(e.CacheStats().FullBuilds) })
		reg.CounterFunc("plus_query_view_fallbacks_total",
			"Advance attempts abandoned for a full build.",
			func() float64 { return float64(e.CacheStats().Fallbacks) })
	}
}

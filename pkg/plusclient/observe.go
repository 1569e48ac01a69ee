package plusclient

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// WithRequestID returns a context carrying a trace ID: every SDK call
// made with it sends the X-Plus-Request-Id header, the server threads
// the ID through its engines, request log and slow-query log, and
// echoes it on the response — one identifier correlating client and
// server views of the same request. IDs are free-form (16 hex chars by
// convention); NewRequestID mints one.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// RequestIDFrom reports the trace ID a context carries ("" when none).
func RequestIDFrom(ctx context.Context) string { return obs.RequestID(ctx) }

// NewRequestID mints a fresh random trace ID.
func NewRequestID() string { return obs.NewRequestID() }

// Metrics fetches the server's metrics registry (GET /v2/metrics, the
// admin capability) as gathered families.
func (c *Client) Metrics(ctx context.Context) ([]obs.Family, error) {
	var fams []obs.Family
	err := c.do(ctx, http.MethodGet, "/v2/metrics?format=json", nil, &fams)
	return fams, err
}

// Slowlog fetches the server's slow-query ring, newest first
// (GET /v2/slowlog, the admin capability).
func (c *Client) Slowlog(ctx context.Context) ([]obs.SlowEntry, error) {
	var entries []obs.SlowEntry
	err := c.do(ctx, http.MethodGet, "/v2/slowlog", nil, &entries)
	return entries, err
}

// ClientMetrics instruments the SDK's transport: per-endpoint request
// counts by status, latency histograms and a transport-failure counter,
// registered on the caller's obs.Registry. Share one registry between
// an embedding application's own metrics and the SDK's.
type ClientMetrics struct {
	requests *obs.CounterVec   // endpoint, method, status
	latency  *obs.HistogramVec // endpoint
	failures *obs.Counter
}

// NewClientMetrics registers the SDK's client-side series on reg.
func NewClientMetrics(reg *obs.Registry) *ClientMetrics {
	return &ClientMetrics{
		requests: reg.CounterVec("plusclient_requests_total",
			"SDK requests by endpoint, method and status.", "endpoint", "method", "status"),
		latency: reg.HistogramVec("plusclient_request_seconds",
			"SDK request latency by endpoint.", obs.ScaleNanos, "endpoint"),
		failures: reg.Counter("plusclient_transport_failures_total",
			"SDK requests that died in transport (no HTTP status)."),
	}
}

// WithClientMetrics records every request the client makes into m. The
// hook wraps the transport, so batch, lineage, query, follow and
// session-refresh traffic all count. Order-sensitive with
// WithHTTPClient: pass WithHTTPClient first so its transport is the one
// wrapped.
func WithClientMetrics(m *ClientMetrics) Option {
	return func(c *Client) {
		if m == nil {
			return
		}
		// Wrap a copy: never mutate a caller-shared http.Client.
		hc := *c.http
		base := hc.Transport
		if base == nil {
			base = http.DefaultTransport
		}
		hc.Transport = &instrumentedTransport{next: base, m: m}
		c.http = &hc
	}
}

// metricEndpoint collapses a request path onto its route shape so label
// cardinality stays bounded (object IDs are unbounded).
func metricEndpoint(path string) string {
	if strings.HasPrefix(path, "/v2/objects/") {
		return "/v2/objects/"
	}
	return path
}

type instrumentedTransport struct {
	next http.RoundTripper
	m    *ClientMetrics
}

func (t *instrumentedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	endpoint := metricEndpoint(req.URL.Path)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.m.failures.Inc()
		return resp, err
	}
	t.m.requests.With(endpoint, req.Method, strconv.Itoa(resp.StatusCode)).Inc()
	t.m.latency.With(endpoint).ObserveSince(start)
	return resp, nil
}

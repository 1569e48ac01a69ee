package plusclient

import (
	"context"
	"net/http"

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

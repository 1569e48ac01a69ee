// Package plusclient is the typed Go SDK for the PLUS v2 wire API: the
// principal-scoped, batch-ingesting, cursor-resumable surface a plusd
// server mounts under /v2 (internal/plus documents the endpoints).
//
// Every method is context-first, so cancellation and deadlines propagate
// into the server's lineage and query engines. The caller's identity
// travels as the client's principal: a signed session token attached
// with WithToken (e.g. minted offline by `plusctl session mint`), a
// session established with Mint — which the client then
// transparently re-mints before expiry — or, against servers in the
// legacy open mode, a bare viewer predicate attached with WithViewer.
// 401 and 403 answers match the ErrUnauthorized and ErrForbidden
// sentinels via errors.Is, alongside the structured *APIError.
//
//	c := plusclient.New(baseURL, plusclient.WithToken(bootToken))
//	sess, err := c.Mint(ctx, plusclient.SessionRequest{
//	    Viewer: "Public", Capabilities: []string{"query"}})
//	cur, err := c.Batch(ctx, plusclient.BatchRequest{Objects: ...})
//	res, err := c.Lineage(ctx, plusclient.LineageRequest{Start: "report"})
//	byName, err := c.Lineage(ctx, plusclient.LineageRequest{StartName: "final report"})
//
// Lineage decodes its answer without reflection, and the strings it
// returns share one copy of the body, so keeping any one of them keeps
// the whole body alive.
//
// Change-feed consumption is resumable: Follow streams deltas, hands the
// caller one durable cursor per applied event, reconnects on transport
// failures, and — when the server answers 410 (the cursor fell behind the
// retained change window or belongs to a previous life of the store) —
// transparently resyncs from GET /v2/snapshot, delivering the snapshot as
// an EventResync before resuming the stream.
package plusclient

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/account"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
)

// Client talks to one plusd server's v2 API. It is safe for concurrent
// use; the session state (token, expiry) is mutex-guarded so auto-refresh
// races cleanly.
type Client struct {
	base   string
	http   *http.Client
	viewer string

	// initErr holds a deferred option failure (e.g. WithCAFile on an
	// unreadable bundle): New stays infallible, and the first request
	// surfaces the problem instead of silently skipping verification.
	initErr error
	// caPool is WithCAFile's bundle; New rewraps the final transport
	// with it.
	caPool *x509.CertPool

	// mu guards the session fields below.
	mu sync.Mutex
	// session is the current bearer token (X-Plus-Session).
	session string
	// sessionExp is the token's expiry when known (zero for tokens
	// attached via WithToken, which the client cannot introspect safely);
	// refresh fires refreshMargin before it.
	sessionExp time.Time
	// sessionViewer / sessionCaps reproduce the session's scope so a
	// refresh mints an identically-scoped replacement.
	sessionViewer string
	sessionCaps   []string
	// refreshMargin is how long before expiry the client re-mints.
	refreshMargin time.Duration
	// refreshBackoffUntil suppresses refresh attempts after a failed
	// re-mint, so a dead credential (rotated-out key) costs one extra
	// round-trip per backoff window instead of one per request.
	refreshBackoffUntil time.Time
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient
// semantics with no global timeout; use contexts per call).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithViewer attaches a privilege-predicate principal to every request
// (the X-Plus-Viewer header). The server validates it against its
// lattice; unknown predicates fail with code "unknown_viewer".
func WithViewer(viewer string) Option { return func(c *Client) { c.viewer = viewer } }

// WithToken attaches a signed session token to every request (the
// X-Plus-Session header) — e.g. one minted offline with `plusctl session
// mint`. The client sends it as-is; call Mint instead to get
// auto-refresh before expiry.
func WithToken(token string) Option { return func(c *Client) { c.session = token } }

// New targets a server base URL such as "http://localhost:7337".
func New(base string, opts ...Option) *Client {
	c := &Client{base: base, http: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	if c.caPool != nil {
		c.http = httpClientWithTLS(c.http, &tls.Config{RootCAs: c.caPool})
	}
	return c
}

// APIError is a structured v2 error answer. It satisfies errors.Is for
// ErrTooFarBehind when the server demanded a resync, ErrUnauthorized on
// 401s and ErrForbidden on 403s.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable failure class (plus.Code*).
	Code string
	// Message is the human-readable error.
	Message string
	// ResyncCursor / ResyncURL accompany too_far_behind answers.
	ResyncCursor string
	ResyncURL    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("plusclient: %d %s: %s", e.Status, e.Code, e.Message)
}

// Is maps well-known server answers onto the package's sentinel errors.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrTooFarBehind:
		return e.Code == plus.CodeTooFarBehind
	case ErrUnauthorized:
		return e.Status == http.StatusUnauthorized
	case ErrForbidden:
		return e.Status == http.StatusForbidden
	}
	return false
}

// ErrTooFarBehind reports that a cursor no longer resolves on the server:
// the consumer must resync from a snapshot. errors.Is(err, ErrTooFarBehind)
// matches APIErrors carrying the too_far_behind code.
var ErrTooFarBehind = errors.New("plusclient: cursor too far behind; resync from a snapshot")

// ErrUnauthorized reports a 401: the request carried no token, an
// expired token, or one no keyring key signed. Mint (or re-mint) a
// session and retry. errors.Is(err, ErrUnauthorized) matches 401
// APIErrors.
var ErrUnauthorized = errors.New("plusclient: unauthorized; mint a session token")

// ErrForbidden reports a 403: the principal is authenticated but lacks
// the capability (or privilege) the endpoint demands.
// errors.Is(err, ErrForbidden) matches 403 APIErrors.
var ErrForbidden = errors.New("plusclient: forbidden; the token lacks the required capability")

// do runs one request with the client's principal headers and decodes a
// JSON answer into out (when non-nil). Non-2xx answers come back as
// *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("plusclient: encode: %w", err)
		}
		body = bytes.NewReader(data)
	}
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("plusclient: decode: %w", err)
	}
	return nil
}

// send runs one request with the client's principal headers; a non-nil
// body is sent as JSON. Non-2xx answers come back as *APIError; on
// success the caller owns the response body.
func (c *Client) send(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("plusclient: %w", err)
	}
	if err := checkStatus(resp); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	if c.initErr != nil {
		return nil, c.initErr
	}
	c.maybeRefresh(ctx)
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("plusclient: %w", err)
	}
	c.mu.Lock()
	session := c.session
	c.mu.Unlock()
	if session != "" {
		req.Header.Set(plus.HeaderSession, session)
	} else if c.viewer != "" {
		req.Header.Set(plus.HeaderViewer, c.viewer)
	}
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(plus.HeaderRequestID, id)
	}
	return req, nil
}

// maybeRefresh re-mints the session when it is close to expiry (within
// refreshMargin), using the current — still valid — token as the minting
// credential, so long-lived clients (change-feed followers, ingest
// daemons) never present an expired token. Refresh failures are left for
// the request itself to surface: the old token rides along and the
// server's 401 is the caller's actionable signal.
func (c *Client) maybeRefresh(ctx context.Context) {
	now := time.Now()
	c.mu.Lock()
	due := c.session != "" && !c.sessionExp.IsZero() &&
		now.After(c.refreshBackoffUntil) && c.sessionExp.Sub(now) < c.refreshMargin
	token, viewer, caps := c.session, c.sessionViewer, c.sessionCaps
	c.mu.Unlock()
	if !due {
		return
	}
	resp, err := c.mintWith(ctx, token, plus.SessionRequest{Viewer: viewer, Capabilities: caps})
	if err != nil {
		c.mu.Lock()
		c.refreshBackoffUntil = time.Now().Add(2 * time.Second)
		c.mu.Unlock()
		return
	}
	c.adoptSession(resp)
}

// mintWith runs one POST /v2/sessions authenticated by token (empty for
// the client's viewer-header or anonymous principal), bypassing the
// session state so refresh cannot recurse.
func (c *Client) mintWith(ctx context.Context, token string, req plus.SessionRequest) (plus.SessionResponse, error) {
	var resp plus.SessionResponse
	if c.initErr != nil {
		return resp, c.initErr
	}
	data, err := json.Marshal(req)
	if err != nil {
		return resp, fmt.Errorf("plusclient: encode: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/sessions", bytes.NewReader(data))
	if err != nil {
		return resp, fmt.Errorf("plusclient: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if token != "" {
		hreq.Header.Set(plus.HeaderSession, token)
	} else if c.viewer != "" {
		hreq.Header.Set(plus.HeaderViewer, c.viewer)
	}
	if id := RequestIDFrom(ctx); id != "" {
		hreq.Header.Set(plus.HeaderRequestID, id)
	}
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return resp, fmt.Errorf("plusclient: %w", err)
	}
	defer hresp.Body.Close()
	if err := checkStatus(hresp); err != nil {
		return resp, err
	}
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return resp, fmt.Errorf("plusclient: decode: %w", err)
	}
	return resp, nil
}

// adoptSession switches the client onto a freshly minted session and
// derives the refresh margin: a quarter of the token's lifetime, clamped
// to [1s, 1m].
func (c *Client) adoptSession(resp plus.SessionResponse) {
	exp := time.Unix(resp.ExpiresAt, 0)
	margin := time.Until(exp) / 4
	if margin > time.Minute {
		margin = time.Minute
	}
	if margin < time.Second {
		margin = time.Second
	}
	c.mu.Lock()
	c.session = resp.Token
	c.sessionExp = exp
	c.sessionViewer = resp.Viewer
	c.sessionCaps = resp.Capabilities
	c.refreshMargin = margin
	c.refreshBackoffUntil = time.Time{}
	c.mu.Unlock()
}

// checkStatus turns a non-2xx response into an *APIError, decoding the
// structured body when present.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return apiError(resp, data)
}

// apiError builds the *APIError of a non-2xx response whose body is data.
// An answer without a structured body (a proxy's, or the mux's plain-text
// 404) gets the code "http_<status>".
func apiError(resp *http.Response, data []byte) *APIError {
	apiErr := &APIError{Status: resp.StatusCode}
	var wire struct {
		Error        string `json:"error"`
		Code         string `json:"code"`
		ResyncCursor string `json:"resyncCursor"`
		ResyncURL    string `json:"resyncURL"`
	}
	if json.Unmarshal(data, &wire) == nil && wire.Error != "" {
		apiErr.Message = wire.Error
		apiErr.Code = wire.Code
		apiErr.ResyncCursor = wire.ResyncCursor
		apiErr.ResyncURL = wire.ResyncURL
	} else {
		apiErr.Message = resp.Status
	}
	if apiErr.Code == "" {
		apiErr.Code = fmt.Sprintf("http_%d", resp.StatusCode)
	}
	return apiErr
}

// SessionRequest / SessionResponse alias the wire session-minting shapes.
type (
	SessionRequest  = plus.SessionRequest
	SessionResponse = plus.SessionResponse
)

// Mint creates a signed stateless session scoped by req — under required
// auth the current principal can only attenuate its privileges (narrower
// viewer, capability subset; expiry slides, see plus.SessionRequest) —
// and switches the client onto the new token, auto-refreshing it before
// expiry from then on. It returns the full response so callers can
// persist or share the token.
func (c *Client) Mint(ctx context.Context, req SessionRequest) (SessionResponse, error) {
	c.maybeRefresh(ctx)
	c.mu.Lock()
	token := c.session
	c.mu.Unlock()
	resp, err := c.mintWith(ctx, token, req)
	if err != nil {
		return resp, err
	}
	c.adoptSession(resp)
	return resp, nil
}

// Session reports the client's current token and its expiry (zero when
// unknown, e.g. a WithToken credential).
func (c *Client) Session() (token string, expiresAt time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session, c.sessionExp
}

// BatchRequest aliases the wire batch: objects, edges and surrogates
// applied atomically under one revision window.
type BatchRequest = plus.BatchRequest

// BatchResponse aliases the wire answer: the post-apply revision and the
// change-feed cursor positioned at it.
type BatchResponse = plus.BatchResponse

// Batch ingests a whole unit in one request. Objects are applied before
// edges and surrogates, so intra-batch references work; a validation
// failure applies nothing.
func (c *Client) Batch(ctx context.Context, b BatchRequest) (BatchResponse, error) {
	var resp BatchResponse
	err := c.do(ctx, http.MethodPost, "/v2/batch", b, &resp)
	return resp, err
}

// PutObject stores one object (a single-record batch).
func (c *Client) PutObject(ctx context.Context, o plus.Object) error {
	_, err := c.Batch(ctx, BatchRequest{Objects: []plus.Object{o}})
	return err
}

// PutEdge stores one edge (a single-record batch).
func (c *Client) PutEdge(ctx context.Context, e plus.Edge) error {
	_, err := c.Batch(ctx, BatchRequest{Edges: []plus.Edge{e}})
	return err
}

// PutSurrogate stores one surrogate spec (a single-record batch).
func (c *Client) PutSurrogate(ctx context.Context, sp plus.SurrogateSpec) error {
	_, err := c.Batch(ctx, BatchRequest{Surrogates: []plus.SurrogateSpec{sp}})
	return err
}

// GetObject fetches one object. The fetch is principal-scoped: a record
// above the client's privilege answers 403 (code "forbidden").
func (c *Client) GetObject(ctx context.Context, id string) (plus.Object, error) {
	var o plus.Object
	err := c.do(ctx, http.MethodGet, "/v2/objects/"+url.PathEscape(id), nil, &o)
	return o, err
}

// LineageRequest is one protected lineage question, seeded by an object
// id (Start) or by every object of a name (StartName), exactly one of
// the two. The viewer is NOT a field: it is the client's principal.
type LineageRequest struct {
	Start     string
	StartName string
	Direction string // ancestors (default) | descendants | both
	Depth     int    // 0 = unbounded
	Mode      string // surrogate (default) | hide
	Label     string // edge-label traversal filter
	Kind      string // data | invocation traversal filter
}

// Lineage runs one lineage query as the client's principal. The answer
// is decoded without reflection (plus.LineageResponse.UnmarshalJSON), and
// its strings share one copy of the body: keeping any one of them keeps
// the whole body alive.
func (c *Client) Lineage(ctx context.Context, q LineageRequest) (*plus.LineageResponse, error) {
	params := url.Values{}
	if q.Start != "" {
		params.Set("start", q.Start)
	}
	if q.StartName != "" {
		params.Set("startName", q.StartName)
	}
	if q.Direction != "" {
		params.Set("direction", q.Direction)
	}
	if q.Depth > 0 {
		params.Set("depth", fmt.Sprint(q.Depth))
	}
	if q.Mode != "" {
		params.Set("mode", q.Mode)
	}
	if q.Label != "" {
		params.Set("label", q.Label)
	}
	if q.Kind != "" {
		params.Set("kind", q.Kind)
	}
	resp, err := c.send(ctx, http.MethodGet, "/v2/lineage?"+params.Encode(), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxPresizedBody {
		// ReadFrom wants MinRead bytes free before each read, the one
		// that finds EOF included.
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("plusclient: read lineage answer: %w", err)
	}
	var out plus.LineageResponse
	if err := out.UnmarshalJSON(body.Bytes()); err != nil {
		return nil, fmt.Errorf("plusclient: decode: %w", err)
	}
	return &out, nil
}

// maxPresizedBody caps the buffer a Content-Length header can make
// Lineage allocate before any of the body has arrived.
const maxPresizedBody = 64 << 20

// QueryOptions tune one PLUSQL query.
type QueryOptions struct {
	Mode    string // surrogate (default) | hide
	Limit   int    // response row cap (0 = server default)
	Explain bool   // attach the executed plan
}

// Query runs one PLUSQL query as the client's principal.
func (c *Client) Query(ctx context.Context, src string, opts QueryOptions) (*plusql.QueryResponse, error) {
	var resp plusql.QueryResponse
	err := c.do(ctx, http.MethodPost, "/v2/query", plusql.QueryRequest{
		Query: src, Mode: opts.Mode, Limit: opts.Limit, Explain: opts.Explain,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// SnapshotResponse aliases the wire resync payload.
type SnapshotResponse = plus.SnapshotResponse

// Snapshot fetches the full store at one revision together with the
// cursor that resumes the change feed from it.
func (c *Client) Snapshot(ctx context.Context) (*SnapshotResponse, error) {
	var resp SnapshotResponse
	if err := c.do(ctx, http.MethodGet, "/v2/snapshot", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Restore materialises a snapshot payload as a local in-memory backend —
// a client-side replica at the snapshot's revision. Tools that need the
// whole graph (cmd/protect and cmd/audit's -server modes) build their
// account specs from it.
func Restore(snap *SnapshotResponse) (*plus.MemBackend, error) {
	m := plus.NewMemBackend(0)
	_, err := m.Apply(plus.Batch{Objects: snap.Objects, Edges: snap.Edges, Surrogates: snap.Surrogates})
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("plusclient: restore snapshot: %w", err)
	}
	return m, nil
}

// Spec fetches the server's full snapshot and rebuilds the provider-side
// account.Spec — graph, labeling, policy thresholds and surrogate
// registry over the server's own privilege lattice — exactly as the
// server's engines would assemble it. Offline analysis tools (cmd/protect
// and cmd/audit's -server modes) generate and score protected accounts
// locally from it.
func (c *Client) Spec(ctx context.Context) (*account.Spec, *privilege.Lattice, error) {
	snap, err := c.Snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	lat, err := privilege.FromPairs(snap.Lattice)
	if err != nil {
		return nil, nil, fmt.Errorf("plusclient: server lattice: %w", err)
	}
	replica, err := Restore(snap)
	if err != nil {
		return nil, nil, err
	}
	defer replica.Close()
	sn, err := replica.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	spec, err := plus.SpecFromSnapshot(sn, lat)
	if err != nil {
		return nil, nil, fmt.Errorf("plusclient: rebuild spec: %w", err)
	}
	return spec, lat, nil
}

// Healthz probes the server's principal-free readiness endpoint. A
// degraded server answers 503 with a structured "unavailable" payload:
// Healthz returns that payload together with the *APIError, so callers
// see what the probe reported, not only that it failed.
func (c *Client) Healthz(ctx context.Context) (plus.HealthzResponse, error) {
	var h plus.HealthzResponse
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return h, fmt.Errorf("plusclient: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return h, fmt.Errorf("plusclient: %w", err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &h); err != nil {
			return h, fmt.Errorf("plusclient: decode: %w", err)
		}
		return h, nil
	}
	if json.Unmarshal(data, &h) != nil || h.Status == "" {
		h = plus.HealthzResponse{}
	}
	return h, apiError(resp, data)
}

// ExportOPM streams the server's store to w as an OPM document
// (GET /v2/opm, the replicate capability).
func (c *Client) ExportOPM(ctx context.Context, w io.Writer) error {
	resp, err := c.send(ctx, http.MethodGet, "/v2/opm", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("plusclient: export opm: %w", err)
	}
	return nil
}

// ImportOPM uploads the OPM document read from r (POST /v2/opm, the
// ingest capability).
func (c *Client) ImportOPM(ctx context.Context, r io.Reader) error {
	resp, err := c.send(ctx, http.MethodPost, "/v2/opm", r)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

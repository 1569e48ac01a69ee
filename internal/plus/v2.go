package plus

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/privilege"
)

// This file is the v2 wire API, the server's one HTTP surface (the
// principal-free readiness probe GET /v1/healthz aside). Three things
// shape it:
//
//   - Who is asking travels out-of-band. Every request resolves a
//     principal — a validated privilege-predicate — from the
//     X-Plus-Viewer header or an X-Plus-Session token minted by
//     POST /v2/sessions, never from a loose query parameter. An unknown
//     predicate is a 400 with a structured error body, not a silent
//     Public fallback.
//   - Writes batch. POST /v2/batch ingests objects, edges and surrogates
//     in one atomic revision window (Backend.Apply), amortising
//     per-request overhead on write-heavy workloads.
//   - Reads resume. GET /v2/changes streams the change feed as NDJSON
//     with opaque durable cursors (revision + backend epoch); a consumer
//     that fell past the retained window gets a typed 410 with a resync
//     hint pointing at GET /v2/snapshot.
//
// Every error carries a machine-readable code alongside the human message:
//
//	{"error": "...", "code": "unknown_viewer", ...}
//
// Trust model: the surface splits into consumer endpoints — lineage,
// query, object fetch — whose answers are protected for the resolved
// principal, and provider/replication endpoints — batch, changes,
// snapshot, OPM interchange — which carry raw records, since a
// replica must hold the full graph to serve its own viewers. The split
// is enforced by the capability model (auth.go/token.go): with a keyring
// configured (plusd -auth-keys), every request must carry an HMAC-signed
// stateless session token whose capability set covers the endpoint —
// "ingest" for writes, "replicate" for raw-record reads, "query" for
// protected reads, "admin" for operations — and any node sharing the
// keyring verifies any node's tokens, no session state replicated.
// Without a keyring the server runs in the legacy open mode: principals
// are validated but client-asserted, and every caller holds every
// capability.

// v2 principal headers.
const (
	// HeaderViewer carries the caller's privilege-predicate nickname.
	HeaderViewer = "X-Plus-Viewer"
	// HeaderSession carries a token minted by POST /v2/sessions.
	HeaderSession = "X-Plus-Session"
)

// Error codes of the structured error body.
const (
	CodeBadRequest       = "bad_request"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnknownViewer    = "unknown_viewer"
	CodeUnauthorized     = "unauthorized"
	CodeBadToken         = "bad_token"
	CodeTokenExpired     = "token_expired"
	CodeViewerConflict   = "viewer_conflict"
	CodeNotFound         = "not_found"
	CodeForbidden        = "forbidden"
	CodeBadCursor        = "bad_cursor"
	CodeTooFarBehind     = "too_far_behind"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
)

// APIError is the v2 structured error body. Status is the HTTP status it
// is served with (not serialised; the status line carries it).
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"error"`
	// ResyncCursor and ResyncURL accompany too_far_behind: the cursor of
	// the present and where to fetch a full snapshot to rebase onto.
	ResyncCursor string `json:"resyncCursor,omitempty"`
	ResyncURL    string `json:"resyncURL,omitempty"`
}

// Error implements error.
func (e *APIError) Error() string { return e.Message }

// v2Errorf builds an APIError.
func v2Errorf(status int, code, format string, args ...interface{}) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// WriteAPIError serves a structured error. Extension subsystems
// (PLUSQL's /v2/query) share it so every endpoint fails identically.
func WriteAPIError(w http.ResponseWriter, e *APIError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(e)
}

// v2StoreError maps a storage/engine error onto the structured body.
func v2StoreError(err error) *APIError {
	switch {
	case errors.Is(err, ErrNotFound):
		return v2Errorf(http.StatusNotFound, CodeNotFound, "%s", err)
	case errors.Is(err, ErrClosed):
		return v2Errorf(http.StatusServiceUnavailable, CodeUnavailable, "%s", err)
	default:
		return v2Errorf(http.StatusBadRequest, CodeBadRequest, "%s", err)
	}
}

// SessionRequest is the body of POST /v2/sessions: mint a stateless
// signed session token. Under required auth the caller must itself hold
// a valid token, and the minted token's *privileges* can only attenuate
// it: a viewer the caller's viewer equals or dominates, and a
// capability subset. Expiry deliberately does NOT attenuate — holding a
// valid token entitles the holder to a fresh one (sliding sessions, the
// SDK's auto-refresh), so expiry bounds credential staleness, not
// privilege; revoking a principal for real means rotating its key out
// of the keyring.
type SessionRequest struct {
	// Viewer is the privilege-predicate the session acts as; empty means
	// the caller's own viewer (Public in open mode without a header).
	Viewer string `json:"viewer,omitempty"`
	// Capabilities lists the minted token's capability set; empty means
	// everything the caller holds.
	Capabilities []string `json:"capabilities,omitempty"`
	// TTLSeconds is the requested lifetime; 0 means the server default,
	// and the server caps it at AuthConfig.MaxTTL.
	TTLSeconds int64 `json:"ttlSeconds,omitempty"`
}

// SessionResponse is the answer to POST /v2/sessions.
type SessionResponse struct {
	Token        string   `json:"token"`
	Viewer       string   `json:"viewer"`
	Capabilities []string `json:"capabilities"`
	// ExpiresAt is the token expiry in unix seconds; clients refresh
	// before it (the SDK does so automatically).
	ExpiresAt int64  `json:"expiresAt"`
	KeyID     string `json:"keyId"`
}

// serveSessions mints a token for a resolved principal of any
// capability: any authenticated caller may attenuate its own token.
// Anonymous callers can mint only in open mode (where the principal holds
// every capability by definition).
func (s *Server) serveSessions(w http.ResponseWriter, r *http.Request, caller Principal) *APIError {
	if s.auth.Require && caller.Token == nil {
		return v2Errorf(http.StatusUnauthorized, CodeUnauthorized,
			"plus: minting a session requires an authenticated principal")
	}
	var req SessionRequest
	if err := DecodeJSONBody(w, r, maxBodyBytes, &req); err != nil {
		return v2Errorf(http.StatusBadRequest, CodeBadRequest, "%s", err)
	}

	viewer := privilege.Predicate(req.Viewer)
	if viewer == "" {
		viewer = caller.Viewer
	}
	if !s.lattice.Known(viewer) {
		return v2Errorf(http.StatusBadRequest, CodeUnknownViewer,
			"plus: unknown viewer predicate %q", viewer)
	}
	if caller.Token != nil && viewer != caller.Viewer && !s.lattice.Dominates(caller.Viewer, viewer) {
		return v2Errorf(http.StatusForbidden, CodeForbidden,
			"plus: cannot mint viewer %q from a token for %q", viewer, caller.Viewer)
	}

	caps, err := ParseCapabilities(req.Capabilities)
	if err != nil {
		return v2Errorf(http.StatusBadRequest, CodeBadRequest, "%s", err)
	}
	if len(caps) == 0 {
		caps = caller.Capabilities
	} else if !capsSubset(caps, caller.Capabilities) {
		return v2Errorf(http.StatusForbidden, CodeForbidden,
			"plus: requested capabilities %v exceed the caller's %v", caps, caller.Capabilities)
	}

	if req.TTLSeconds < 0 {
		return v2Errorf(http.StatusBadRequest, CodeBadRequest, "plus: negative ttlSeconds")
	}
	ttl := s.auth.DefaultTTL
	if req.TTLSeconds > 0 {
		ttl = time.Duration(req.TTLSeconds) * time.Second
	}
	if ttl > s.auth.MaxTTL {
		ttl = s.auth.MaxTTL
	}
	// Viewer and capabilities attenuate (never exceed the caller's), but
	// expiry deliberately slides: holding a valid credential entitles you
	// to a fresh one (how the SDK's auto-refresh keeps long-lived
	// followers alive). Expiry bounds credential staleness; actually
	// cutting a principal off is key rotation's job.
	now := time.Now()
	exp := now.Add(ttl)

	claims := Claims{
		Viewer:       string(viewer),
		Capabilities: caps,
		IssuedAt:     now.Unix(),
		ExpiresAt:    exp.Unix(),
	}
	kr := s.Keyring()
	token, err := kr.Mint(claims)
	if err != nil {
		return v2Errorf(http.StatusInternalServerError, CodeInternal, "%s", err)
	}
	writeJSON(w, http.StatusCreated, SessionResponse{
		Token:        token,
		Viewer:       string(viewer),
		Capabilities: capStrings(caps),
		ExpiresAt:    claims.ExpiresAt,
		KeyID:        kr.Active(),
	})
	return nil
}

// BatchRequest is the body of POST /v2/batch: a whole ingest unit applied
// atomically under one revision window. Objects are applied before edges
// and surrogates, so intra-batch references work.
type BatchRequest struct {
	Objects    []Object        `json:"objects,omitempty"`
	Edges      []Edge          `json:"edges,omitempty"`
	Surrogates []SurrogateSpec `json:"surrogates,omitempty"`
}

// BatchResponse reports the applied batch: the backend revision after the
// apply and the change-feed cursor positioned at it.
type BatchResponse struct {
	Revision   uint64 `json:"revision"`
	Cursor     string `json:"cursor"`
	Objects    int    `json:"objects"`
	Edges      int    `json:"edges"`
	Surrogates int    `json:"surrogates"`
}

// Body caps of the bulk endpoints: an ingest unit (POST /v2/batch) or
// an OPM document (POST /v2/opm) may be big, but not unbounded.
const (
	maxBatchBytes = 64 << 20
	maxOPMBytes   = 64 << 20
)

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, _ Principal) *APIError {
	var req BatchRequest
	if err := DecodeJSONBody(w, r, maxBatchBytes, &req); err != nil {
		return v2Errorf(http.StatusBadRequest, CodeBadRequest, "%s", err)
	}
	b := Batch{Objects: req.Objects, Edges: req.Edges, Surrogates: req.Surrogates}
	if err := b.checkSurrogateIDs(s.store.hasObject); err != nil {
		return v2Errorf(http.StatusBadRequest, CodeBadRequest, "%s", err)
	}
	// Apply reports the revision of the batch's own last record (read
	// under its locks), so the returned cursor never skips a concurrent
	// writer's records.
	rev, err := s.store.Apply(b)
	if err != nil {
		return v2StoreError(err)
	}
	s.obs.batchRecords.Observe(int64(len(req.Objects) + len(req.Edges) + len(req.Surrogates)))
	writeJSON(w, http.StatusOK, BatchResponse{
		Revision:   rev,
		Cursor:     Cursor{Epoch: s.store.Epoch(), Rev: rev}.Encode(),
		Objects:    len(req.Objects),
		Edges:      len(req.Edges),
		Surrogates: len(req.Surrogates),
	})
	return nil
}

func (s *Server) serveObject(w http.ResponseWriter, r *http.Request, p Principal) *APIError {
	id := strings.TrimPrefix(r.URL.Path, "/v2/objects/")
	o, err := s.store.GetObject(id)
	if err != nil {
		return v2StoreError(err)
	}
	// Principal-scoped fetch: a record above the caller's privilege is
	// refused, not served.
	if o.Lowest != "" && !s.lattice.Dominates(p.Viewer, privilege.Predicate(o.Lowest)) {
		return v2Errorf(http.StatusForbidden, CodeForbidden,
			"plus: object %q requires privilege %q", id, o.Lowest)
	}
	writeJSON(w, http.StatusOK, o)
	return nil
}

func (s *Server) serveLineage(w http.ResponseWriter, r *http.Request, p Principal) *APIError {
	q := r.URL.Query()
	if q.Get("viewer") != "" {
		return v2Errorf(http.StatusBadRequest, CodeBadRequest,
			"plus: v2 carries the viewer in the %s header or a session, not a query parameter", HeaderViewer)
	}
	req, err := parseLineageParams(q)
	if err != nil {
		return v2Errorf(http.StatusBadRequest, CodeBadRequest, "%s", err)
	}
	req.Viewer = p.Viewer
	body, err := s.engine.LineageBody(r.Context(), req)
	if errors.Is(err, errNoJSONForm) {
		return v2Errorf(http.StatusInternalServerError, CodeInternal, "%s", err)
	}
	if err != nil {
		return v2StoreError(err)
	}
	writeLineageBody(w, body)
	return nil
}

// SnapshotResponse is the answer to GET /v2/snapshot: the full store at
// one revision, with the cursor to resume the change feed from and the
// privilege lattice the records' nicknames refer to. This is the resync
// payload a consumer rebases onto after a 410, and enough for a client to
// reconstruct a local replica (see pkg/plusclient).
type SnapshotResponse struct {
	Cursor     string          `json:"cursor"`
	Revision   uint64          `json:"revision"`
	Epoch      string          `json:"epoch"`
	Lattice    [][2]string     `json:"lattice,omitempty"`
	Objects    []Object        `json:"objects"`
	Edges      []Edge          `json:"edges"`
	Surrogates []SurrogateSpec `json:"surrogates"`
}

func (s *Server) serveSnapshot(w http.ResponseWriter, _ *http.Request, _ Principal) *APIError {
	sn, err := s.store.Snapshot()
	if err != nil {
		return v2StoreError(err)
	}
	resp := SnapshotResponse{
		Cursor:   Cursor{Epoch: s.store.Epoch(), Rev: sn.Revision()}.Encode(),
		Revision: sn.Revision(),
		Epoch:    s.store.Epoch(),
		Lattice:  s.lattice.Pairs(),
		Objects:  sn.Objects(),
	}
	sort.Slice(resp.Objects, func(i, j int) bool { return resp.Objects[i].ID < resp.Objects[j].ID })
	for _, o := range resp.Objects {
		resp.Edges = append(resp.Edges, sn.Out(o.ID)...)
		resp.Surrogates = append(resp.Surrogates, sn.Surrogates(o.ID)...)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// ChangeEvent is one NDJSON line of GET /v2/changes.
type ChangeEvent struct {
	// Type is "change" (one applied record; Cursor resumes after it) or
	// "sync" (the consumer is caught up to Cursor; no record attached).
	Type   string `json:"type"`
	Cursor string `json:"cursor"`
	Rev    uint64 `json:"rev,omitempty"`
	// Kind selects which record field is set on a change event:
	// "object", "edge" or "surrogate".
	Kind      string         `json:"kind,omitempty"`
	Object    *Object        `json:"object,omitempty"`
	Edge      *Edge          `json:"edge,omitempty"`
	Surrogate *SurrogateSpec `json:"surrogate,omitempty"`
}

// changeEvent renders one feed record as its wire event.
func changeEvent(c Change, epoch string) ChangeEvent {
	ev := ChangeEvent{
		Type:   "change",
		Cursor: Cursor{Epoch: epoch, Rev: c.Rev}.Encode(),
		Rev:    c.Rev,
	}
	switch c.Kind {
	case ChangeObject:
		o := c.Object
		ev.Kind, ev.Object = "object", &o
	case ChangeEdge:
		e := c.Edge
		ev.Kind, ev.Edge = "edge", &e
	case ChangeSurrogate:
		sp := c.Surrogate
		ev.Kind, ev.Surrogate = "surrogate", &sp
	}
	return ev
}

// maxChangeWait caps the wait parameter so handlers cannot be parked
// indefinitely; clients reconnect (cheaply, with a cursor) to keep
// following.
const maxChangeWait = 30 * time.Second

// v2ResyncError builds the typed 410: the consumer's position no longer
// resolves (aged past the retained window, or an epoch from a previous
// life of the store), so it must rebase onto a snapshot.
func (s *Server) v2ResyncError(why string) *APIError {
	e := v2Errorf(http.StatusGone, CodeTooFarBehind, "plus: %s; resync from a snapshot", why)
	e.ResyncCursor = Cursor{Epoch: s.store.Epoch(), Rev: s.store.Revision()}.Encode()
	e.ResyncURL = "/v2/snapshot"
	return e
}

// serveChanges streams the change feed as NDJSON. Query parameters:
//
//	cursor  resume position (a token from a previous event, batch response
//	        or snapshot); absent means from the beginning of history
//	limit   stop after this many change events (0 = unbounded)
//	wait    long-poll budget, e.g. "5s" or "1500ms": after catching up,
//	        hold the stream open this long waiting for more writes
//
// Every change event carries the cursor that resumes *after* it, so a
// consumer that persists the last cursor it applied gets exactly-once
// delivery across disconnects and server restarts (durable backends).
func (s *Server) serveChanges(w http.ResponseWriter, r *http.Request, _ Principal) *APIError {
	q := r.URL.Query()
	epoch := s.store.Epoch()
	cur := Cursor{Epoch: epoch, Rev: 0}
	if cstr := q.Get("cursor"); cstr != "" {
		var err error
		cur, err = DecodeCursor(cstr)
		if err != nil {
			return v2Errorf(http.StatusBadRequest, CodeBadCursor, "%s", err)
		}
	}
	limit := 0
	if lstr := q.Get("limit"); lstr != "" {
		n, err := strconv.Atoi(lstr)
		if err != nil || n < 0 {
			return v2Errorf(http.StatusBadRequest, CodeBadRequest, "plus: bad limit %q", lstr)
		}
		limit = n
	}
	var wait time.Duration
	if wstr := q.Get("wait"); wstr != "" {
		d, err := time.ParseDuration(wstr)
		if err != nil || d < 0 {
			return v2Errorf(http.StatusBadRequest, CodeBadRequest, "plus: bad wait %q", wstr)
		}
		if d > maxChangeWait {
			d = maxChangeWait
		}
		wait = d
	}

	if cur.Epoch != epoch {
		return s.v2ResyncError(fmt.Sprintf("cursor epoch %q is not the store's %q", cur.Epoch, epoch))
	}
	// Probe before committing to a 200: a cursor past the retained window
	// (or from a diverged, e.g. crash-truncated, history) must fail the
	// whole request with a typed 410, not mid-stream.
	changes, err := s.store.ChangesSince(cur.Rev)
	if err != nil {
		switch {
		case errors.Is(err, ErrTooFarBehind):
			return s.v2ResyncError(fmt.Sprintf("revision %d aged out of the retained change window", cur.Rev))
		case errors.Is(err, ErrClosed):
			return v2Errorf(http.StatusServiceUnavailable, CodeUnavailable, "%s", err)
		}
		// A future revision: the history this cursor saw no longer exists
		// (e.g. a torn tail was truncated by crash recovery).
		return s.v2ResyncError(fmt.Sprintf("revision %d is beyond the store's history", cur.Rev))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}

	emitted := 0
	deadline := time.Now().Add(wait)
	wroteSync := false
	for {
		for _, c := range changes {
			_ = enc.Encode(changeEvent(c, epoch))
			cur.Rev = c.Rev
			emitted++
			wroteSync = false
			if limit > 0 && emitted >= limit {
				flush()
				return nil
			}
		}
		if !wroteSync {
			_ = enc.Encode(ChangeEvent{Type: "sync", Cursor: cur.Encode(), Rev: cur.Rev})
			wroteSync = true
		}
		flush()
		// Caught up: long-poll for more writes within the wait budget. The
		// backend's Notify channel is armed BEFORE re-checking the revision,
		// so a write landing between the check and the wait still wakes us —
		// no missed wakeups, no polling interval.
		for {
			if wait <= 0 || time.Now().After(deadline) || r.Context().Err() != nil {
				return nil
			}
			notify := s.store.Notify()
			if s.store.Epoch() != epoch {
				// Compaction rotated the epoch mid-stream: every cursor this
				// stream could stamp is already dead. End it; the client
				// reconnects and resyncs through the pre-stream 410 probe.
				return nil
			}
			if s.store.Revision() > cur.Rev {
				break
			}
			if s.store.Ping() != nil {
				return nil
			}
			timer := time.NewTimer(time.Until(deadline))
			select {
			case <-r.Context().Done():
				timer.Stop()
				return nil
			case <-notify:
				timer.Stop()
			case <-timer.C:
				return nil
			}
		}
		changes, err = s.store.ChangesSince(cur.Rev)
		if err != nil {
			// Mid-stream loss (horizon overtaken while waiting): end the
			// stream; the client reconnects with its cursor and receives
			// the typed 410 through the pre-stream probe.
			return nil
		}
	}
}

// compactor is the optional backend capability behind POST /v2/compact;
// LogBackend implements it, volatile backends do not.
type compactor interface{ Compact() error }

// CompactResponse reports a completed compaction: the store's footprint
// after the rewrite and the cursor of the new epoch (compaction rotates
// the epoch, so followers holding old cursors resync via 410).
type CompactResponse struct {
	Status   string `json:"status"`
	LogBytes int64  `json:"logBytes"`
	Revision uint64 `json:"revision"`
	Cursor   string `json:"cursor"`
}

// serveCompact rewrites the durable log to live records only
// (LogBackend.Compact).
func (s *Server) serveCompact(w http.ResponseWriter, _ *http.Request, _ Principal) *APIError {
	c, ok := s.store.(compactor)
	if !ok {
		return v2Errorf(http.StatusBadRequest, CodeBadRequest,
			"plus: this backend does not support compaction")
	}
	if err := c.Compact(); err != nil {
		return v2StoreError(err)
	}
	writeJSON(w, http.StatusOK, CompactResponse{
		Status:   "compacted",
		LogBytes: s.store.Size(),
		Revision: s.store.Revision(),
		Cursor:   Cursor{Epoch: s.store.Epoch(), Rev: s.store.Revision()}.Encode(),
	})
	return nil
}

// serveOPMExport exports the store as an OPM document. An error after
// the document has started is not written: the body is already out.
func (s *Server) serveOPMExport(w http.ResponseWriter, _ *http.Request, _ Principal) *APIError {
	w.Header().Set("Content-Type", "application/json")
	if err := ExportOPM(s.store, w); err != nil {
		return v2StoreError(err)
	}
	return nil
}

// serveOPMImport imports an OPM document as one atomic batch.
func (s *Server) serveOPMImport(w http.ResponseWriter, r *http.Request, _ Principal) *APIError {
	if err := ImportOPM(s.store, http.MaxBytesReader(w, r.Body, maxOPMBytes)); err != nil {
		return v2StoreError(err)
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "imported"})
	return nil
}

// parseLineageParams decodes the lineage query parameters: start or
// startName (exactly one), direction (ancestors|descendants|both, default
// ancestors), depth (default 0 = unbounded), mode (surrogate|hide,
// default surrogate), label (edge-label filter) and kind
// (data|invocation traversal filter). The viewer is the request
// principal, never a parameter.
func parseLineageParams(q interface{ Get(string) string }) (Request, error) {
	start := q.Get("start")
	startName := q.Get("startName")
	if start == "" && startName == "" {
		return Request{}, fmt.Errorf("plus: missing start parameter")
	}
	if start != "" && startName != "" {
		return Request{}, fmt.Errorf("plus: start and startName are mutually exclusive")
	}
	dir, err := parseDirection(q.Get("direction"))
	if err != nil {
		return Request{}, err
	}
	depth := 0
	if d := q.Get("depth"); d != "" {
		depth, err = strconv.Atoi(d)
		if err != nil || depth < 0 {
			return Request{}, fmt.Errorf("plus: bad depth %q", d)
		}
	}
	mode := Mode(q.Get("mode"))
	if mode == "" {
		mode = ModeSurrogate
	}
	if mode != ModeHide && mode != ModeSurrogate {
		return Request{}, fmt.Errorf("plus: unknown mode %q", mode)
	}
	kind := ObjectKind(q.Get("kind"))
	if kind != "" && kind != Data && kind != Invocation {
		return Request{}, fmt.Errorf("plus: unknown kind %q", kind)
	}
	return Request{
		Start:       start,
		StartName:   startName,
		Direction:   dir,
		Depth:       depth,
		Mode:        mode,
		LabelFilter: q.Get("label"),
		KindFilter:  kind,
	}, nil
}

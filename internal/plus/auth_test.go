package plus

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/privilege"
)

// authTestServer wires a MemBackend server that REQUIRES tokens signed
// by kr.
func authTestServer(t *testing.T, kr *Keyring, anonymous bool) (*httptest.Server, *MemBackend) {
	t.Helper()
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	srv := httptest.NewServer(NewServer(
		NewEngine(m, privilege.TwoLevel()),
		WithAuth(AuthConfig{Keyring: kr, Require: true, AnonymousRead: anonymous}),
	))
	t.Cleanup(srv.Close)
	return srv, m
}

// operatorToken mints the bootstrap credential an operator would create
// with `plusctl session mint`: all capabilities, top viewer.
func operatorToken(t *testing.T, kr *Keyring, viewer string, caps ...Capability) string {
	t.Helper()
	if len(caps) == 0 {
		caps = AllCapabilities()
	}
	tok, err := kr.Mint(testClaims(viewer, caps, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func sessionHeader(token string) map[string]string {
	return map[string]string{HeaderSession: token}
}

// TestAuthRequiredRejectsMissingAndInvalidTokens: with -auth-keys set,
// every v2 endpoint answers 401 with a structured body to tokenless,
// tampered and expired requests.
func TestAuthRequiredRejectsMissingAndInvalidTokens(t *testing.T) {
	kr := testKeyring(t)
	srv, _ := authTestServer(t, kr, false)
	valid := operatorToken(t, kr, "Protected")
	expired, err := kr.Mint(Claims{
		Viewer: "Protected", Capabilities: AllCapabilities(),
		IssuedAt: time.Now().Add(-2 * time.Hour).Unix(), ExpiresAt: time.Now().Add(-time.Hour).Unix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tampered := valid[:len(valid)-2] + "zz"

	endpoints := []struct {
		method, path string
		body         interface{}
	}{
		{http.MethodPost, "/v2/batch", BatchRequest{}},
		{http.MethodGet, "/v2/changes", nil},
		{http.MethodGet, "/v2/snapshot", nil},
		{http.MethodGet, "/v2/lineage?start=x", nil},
		{http.MethodGet, "/v2/objects/x", nil},
		{http.MethodPost, "/v2/compact", nil},
		{http.MethodPost, "/v2/sessions", SessionRequest{}},
	}
	for _, ep := range endpoints {
		var apiErr APIError
		if st := doJSON(t, ep.method, srv.URL+ep.path, nil, ep.body, &apiErr); st != http.StatusUnauthorized {
			t.Errorf("%s %s tokenless: status = %d, want 401", ep.method, ep.path, st)
		}
		if apiErr.Code != CodeUnauthorized || apiErr.Message == "" {
			t.Errorf("%s %s tokenless: body = %+v", ep.method, ep.path, apiErr)
		}

		apiErr = APIError{}
		if st := doJSON(t, ep.method, srv.URL+ep.path, sessionHeader(tampered), ep.body, &apiErr); st != http.StatusUnauthorized {
			t.Errorf("%s %s tampered: status = %d, want 401", ep.method, ep.path, st)
		}
		if apiErr.Code != CodeBadToken {
			t.Errorf("%s %s tampered: code = %q", ep.method, ep.path, apiErr.Code)
		}

		apiErr = APIError{}
		if st := doJSON(t, ep.method, srv.URL+ep.path, sessionHeader(expired), ep.body, &apiErr); st != http.StatusUnauthorized {
			t.Errorf("%s %s expired: status = %d, want 401", ep.method, ep.path, st)
		}
		if apiErr.Code != CodeTokenExpired {
			t.Errorf("%s %s expired: code = %q", ep.method, ep.path, apiErr.Code)
		}
	}
}

// TestAuthCapabilitySplit: provider, consumer and admin operations each
// demand their own capability; a token scoped to one gets 403 (not 401)
// elsewhere.
func TestAuthCapabilitySplit(t *testing.T) {
	kr := testKeyring(t)
	srv, _ := authTestServer(t, kr, false)
	ingest := operatorToken(t, kr, "Protected", CapIngest)
	query := operatorToken(t, kr, "Protected", CapQuery)
	replicate := operatorToken(t, kr, "Protected", CapReplicate)

	// ingest can batch...
	var br BatchResponse
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", sessionHeader(ingest), v2Fixture(), &br); st != http.StatusOK {
		t.Fatalf("ingest batch status = %d", st)
	}

	deny := []struct {
		name, method, path, token string
		body                      interface{}
	}{
		{"query cannot batch", http.MethodPost, "/v2/batch", query, BatchRequest{}},
		{"ingest cannot read changes", http.MethodGet, "/v2/changes", ingest, nil},
		{"ingest cannot snapshot", http.MethodGet, "/v2/snapshot", ingest, nil},
		{"replicate cannot lineage", http.MethodGet, "/v2/lineage?start=report", replicate, nil},
		{"replicate cannot point-read", http.MethodGet, "/v2/objects/report", replicate, nil},
		{"query cannot compact", http.MethodPost, "/v2/compact", query, nil},
		{"query cannot read metrics", http.MethodGet, "/v2/metrics", query, nil},
		{"query cannot opm-export", http.MethodGet, "/v2/opm", query, nil},
		{"replicate cannot opm-import", http.MethodPost, "/v2/opm", replicate, nil},
	}
	for _, d := range deny {
		var apiErr APIError
		if st := doJSON(t, d.method, srv.URL+d.path, sessionHeader(d.token), d.body, &apiErr); st != http.StatusForbidden {
			t.Errorf("%s: status = %d, want 403", d.name, st)
		}
		if apiErr.Code != CodeForbidden || apiErr.Message == "" {
			t.Errorf("%s: body = %+v", d.name, apiErr)
		}
	}

	// ...and each capability's own surface works.
	var resp LineageResponse
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/lineage?start=report", sessionHeader(query), nil, &resp); st != http.StatusOK {
		t.Errorf("query lineage status = %d", st)
	}
	if resp.Viewer != "Protected" {
		t.Errorf("lineage viewer = %q", resp.Viewer)
	}
	var snap SnapshotResponse
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/snapshot", sessionHeader(replicate), nil, &snap); st != http.StatusOK {
		t.Errorf("replicate snapshot status = %d", st)
	}
}

// TestAuthCrossInstanceTokens is the stateless multi-node acceptance
// case: a token minted through one Server's POST /v2/sessions is
// accepted by a second Server instance sharing only the keyring.
func TestAuthCrossInstanceTokens(t *testing.T) {
	kr := testKeyring(t, "k2", "k1")
	srvA, _ := authTestServer(t, kr, false)
	srvB, _ := authTestServer(t, kr, false)

	// Bootstrap on node A: operator token mints a narrowed session.
	boot := operatorToken(t, kr, "Protected")
	var sess SessionResponse
	st := doJSON(t, http.MethodPost, srvA.URL+"/v2/sessions", sessionHeader(boot),
		SessionRequest{Capabilities: []string{"ingest", "query"}}, &sess)
	if st != http.StatusCreated {
		t.Fatalf("mint on A: status = %d", st)
	}
	if sess.KeyID != "k2" || sess.Viewer != "Protected" || len(sess.Capabilities) != 2 {
		t.Fatalf("session = %+v", sess)
	}

	// Node B never saw that mint, but verifies the signature.
	var br BatchResponse
	if st := doJSON(t, http.MethodPost, srvB.URL+"/v2/batch", sessionHeader(sess.Token), v2Fixture(), &br); st != http.StatusOK {
		t.Fatalf("cross-instance batch status = %d", st)
	}
	var resp LineageResponse
	if st := doJSON(t, http.MethodGet, srvB.URL+"/v2/lineage?start=report", sessionHeader(sess.Token), nil, &resp); st != http.StatusOK {
		t.Errorf("cross-instance lineage status = %d", st)
	}

	// A server with a DIFFERENT keyring rejects the same token.
	other := testKeyring(t, "other")
	srvC, _ := authTestServer(t, other, false)
	var apiErr APIError
	if st := doJSON(t, http.MethodGet, srvC.URL+"/v2/lineage?start=report", sessionHeader(sess.Token), nil, &apiErr); st != http.StatusUnauthorized {
		t.Errorf("foreign keyring status = %d, want 401", st)
	}
}

// TestAuthSessionAttenuationOnly: POST /v2/sessions can only narrow the
// caller's credential — capability supersets, undominated viewers and
// longer lifetimes are refused or clamped.
func TestAuthSessionAttenuationOnly(t *testing.T) {
	kr := testKeyring(t)
	srv, _ := authTestServer(t, kr, false)
	narrow, err := kr.Mint(testClaims("Public", []Capability{CapQuery}, time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	// Capability escalation: 403.
	var apiErr APIError
	st := doJSON(t, http.MethodPost, srv.URL+"/v2/sessions", sessionHeader(narrow),
		SessionRequest{Capabilities: []string{"ingest"}}, &apiErr)
	if st != http.StatusForbidden || apiErr.Code != CodeForbidden {
		t.Errorf("capability escalation: status=%d code=%q", st, apiErr.Code)
	}

	// Viewer escalation (Public cannot mint Protected): 403.
	apiErr = APIError{}
	st = doJSON(t, http.MethodPost, srv.URL+"/v2/sessions", sessionHeader(narrow),
		SessionRequest{Viewer: "Protected"}, &apiErr)
	if st != http.StatusForbidden || apiErr.Code != CodeForbidden {
		t.Errorf("viewer escalation: status=%d code=%q", st, apiErr.Code)
	}

	// Viewer attenuation (Protected mints Public) works, and the expiry
	// slides past the minting credential's — holding a valid token
	// entitles the holder to a fresh one (the SDK refresh path).
	shortLived, err := kr.Mint(testClaims("Protected", AllCapabilities(), 2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	var sess SessionResponse
	st = doJSON(t, http.MethodPost, srv.URL+"/v2/sessions", sessionHeader(shortLived),
		SessionRequest{Viewer: "Public", Capabilities: []string{"query"}, TTLSeconds: 3600}, &sess)
	if st != http.StatusCreated {
		t.Fatalf("attenuation mint status = %d", st)
	}
	if sess.Viewer != "Public" {
		t.Errorf("minted viewer = %q", sess.Viewer)
	}
	if !time.Unix(sess.ExpiresAt, 0).After(time.Now().Add(30 * time.Minute)) {
		t.Errorf("minted expiry %d did not honour the requested ttl", sess.ExpiresAt)
	}
}

// TestAuthAnonymousReadOnly: the legacy back-compat mode keeps the query
// surface open to tokenless requests (validated client-asserted viewers)
// while writes, replication and admin still demand tokens.
func TestAuthAnonymousReadOnly(t *testing.T) {
	kr := testKeyring(t)
	srv, _ := authTestServer(t, kr, true)
	ingest := operatorToken(t, kr, "Protected", CapIngest)
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", sessionHeader(ingest), v2Fixture(), nil); st != http.StatusOK {
		t.Fatalf("seed batch status = %d", st)
	}

	// Tokenless query works, with the legacy asserted-viewer semantics.
	var resp LineageResponse
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/lineage?start=report",
		map[string]string{HeaderViewer: "Protected"}, nil, &resp); st != http.StatusOK {
		t.Fatalf("anonymous lineage status = %d", st)
	}
	if resp.Viewer != "Protected" {
		t.Errorf("anonymous viewer = %q", resp.Viewer)
	}

	// Tokenless writes/replication/admin stay shut.
	for _, ep := range []struct {
		method, path string
		body         interface{}
	}{
		{http.MethodPost, "/v2/batch", BatchRequest{}},
		{http.MethodGet, "/v2/changes", nil},
		{http.MethodGet, "/v2/snapshot", nil},
		{http.MethodPost, "/v2/compact", nil},
		{http.MethodPost, "/v2/opm", nil},
		{http.MethodGet, "/v2/opm", nil},
		{http.MethodGet, "/v2/metrics", nil},
		{http.MethodPost, "/v2/sessions", SessionRequest{}},
	} {
		var apiErr APIError
		if st := doJSON(t, ep.method, srv.URL+ep.path, nil, ep.body, &apiErr); st != http.StatusUnauthorized {
			t.Errorf("%s %s anonymous: status = %d, want 401", ep.method, ep.path, st)
		}
	}
}

// TestAuthObjectReadBoundedByToken: under required auth a scoped token
// cannot use the point read to fetch records above its viewer.
func TestAuthObjectReadBoundedByToken(t *testing.T) {
	kr := testKeyring(t)
	srv, _ := authTestServer(t, kr, false)
	ingest := operatorToken(t, kr, "Protected", CapIngest)
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", sessionHeader(ingest), v2Fixture(), nil); st != http.StatusOK {
		t.Fatalf("seed batch status = %d", st)
	}

	public := operatorToken(t, kr, "Public", CapQuery)
	var apiErr APIError
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/objects/proc", sessionHeader(public), nil, &apiErr); st != http.StatusForbidden {
		t.Errorf("public token raw read of protected object: status = %d, want 403", st)
	}
	var o Object
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/objects/src", sessionHeader(public), nil, &o); st != http.StatusOK || o.Name != "raw feed" {
		t.Errorf("public token read of public object: status=%d o=%+v", st, o)
	}
	protected := operatorToken(t, kr, "Protected", CapQuery)
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/objects/proc", sessionHeader(protected), nil, &o); st != http.StatusOK {
		t.Errorf("protected token read: status = %d", st)
	}
}

// TestV2ChangesStreamEndsOnCompact: a parked long-poll follower is woken
// by compaction and its stream ends (the epoch its cursors are stamped
// with is dead) instead of sleeping out the wait budget or emitting
// stale-epoch cursors.
func TestV2ChangesStreamEndsOnCompact(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "plus.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel())))
	defer srv.Close()
	ingestV2Fixture(t, srv.URL)

	head := Cursor{Epoch: s.Epoch(), Rev: s.Revision()}.Encode()
	done := make(chan []ChangeEvent, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v2/changes?cursor=" + head + "&wait=30s")
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		done <- readEvents(t, resp.Body)
	}()
	time.Sleep(100 * time.Millisecond) // let the handler catch up and park
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	select {
	case evs := <-done:
		for _, ev := range evs {
			if ev.Type == "change" {
				t.Errorf("post-compact stream emitted a change event: %+v", ev)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after compaction (parked past the rotation)")
	}
}

// TestAuthHealthzStaysOpen: the readiness probe never demands a token.
func TestAuthHealthzStaysOpen(t *testing.T) {
	kr := testKeyring(t)
	srv, _ := authTestServer(t, kr, false)
	var h HealthzResponse
	if st := doJSON(t, http.MethodGet, srv.URL+"/v1/healthz", nil, nil, &h); st != http.StatusOK {
		t.Errorf("healthz status = %d", st)
	}
	if h.Status != "ok" {
		t.Errorf("healthz = %+v", h)
	}
}

// TestAuthTokenViewerConflictAndUnknownLattice: an X-Plus-Viewer header
// contradicting the token is 400; a well-signed token for a predicate
// the lattice does not know is 403.
func TestAuthTokenViewerConflictAndUnknownLattice(t *testing.T) {
	kr := testKeyring(t)
	srv, _ := authTestServer(t, kr, false)
	tok := operatorToken(t, kr, "Protected", CapQuery)

	var apiErr APIError
	st := doJSON(t, http.MethodGet, srv.URL+"/v2/lineage?start=x",
		map[string]string{HeaderSession: tok, HeaderViewer: "Public"}, nil, &apiErr)
	if st != http.StatusBadRequest || apiErr.Code != CodeViewerConflict {
		t.Errorf("conflict: status=%d code=%q", st, apiErr.Code)
	}

	alien := operatorToken(t, kr, "Overlord", CapQuery)
	apiErr = APIError{}
	st = doJSON(t, http.MethodGet, srv.URL+"/v2/lineage?start=x", sessionHeader(alien), nil, &apiErr)
	if st != http.StatusForbidden || apiErr.Code != CodeForbidden {
		t.Errorf("unknown-lattice viewer: status=%d code=%q", st, apiErr.Code)
	}
}

// TestV2CompactEndpoint: admin-gated compaction rewrites a log backend
// (rotating the epoch) and politely refuses on volatile backends.
func TestV2CompactEndpoint(t *testing.T) {
	kr := testKeyring(t)

	// Volatile backend: 400.
	memSrv, _ := authTestServer(t, kr, false)
	admin := operatorToken(t, kr, "Protected", CapAdmin, CapIngest)
	var apiErr APIError
	if st := doJSON(t, http.MethodPost, memSrv.URL+"/v2/compact", sessionHeader(admin), nil, &apiErr); st != http.StatusBadRequest {
		t.Errorf("mem compact status = %d", st)
	}

	// Log backend: live records only, epoch rotated.
	s, err := Open(filepath.Join(t.TempDir(), "plus.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	logSrv := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel()),
		WithAuth(AuthConfig{Keyring: kr, Require: true})))
	defer logSrv.Close()
	if st := doJSON(t, http.MethodPost, logSrv.URL+"/v2/batch", sessionHeader(admin), v2Fixture(), nil); st != http.StatusOK {
		t.Fatalf("log seed status = %d", st)
	}
	before := s.Epoch()
	var cr CompactResponse
	if st := doJSON(t, http.MethodPost, logSrv.URL+"/v2/compact", sessionHeader(admin), nil, &cr); st != http.StatusOK {
		t.Fatalf("log compact status = %d", st)
	}
	if cr.Status != "compacted" || cr.LogBytes <= 0 {
		t.Errorf("compact response = %+v", cr)
	}
	if s.Epoch() == before {
		t.Error("compaction did not rotate the epoch")
	}
	cur, err := DecodeCursor(cr.Cursor)
	if err != nil || cur.Epoch != s.Epoch() {
		t.Errorf("compact cursor = %+v (err %v)", cur, err)
	}
}

// TestOpenModeSessionsAreStateless: without a configured keyring the
// server still mints signed tokens (ephemeral per-process key), so the
// old in-memory session table is gone but open-mode semantics survive.
func TestOpenModeSessionsAreStateless(t *testing.T) {
	srv, _ := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)

	var sess SessionResponse
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/sessions", nil, SessionRequest{Viewer: "Protected"}, &sess); st != http.StatusCreated {
		t.Fatalf("open-mode mint status = %d", st)
	}
	claims, err := DecodeTokenClaims(sess.Token)
	if err != nil {
		t.Fatalf("open-mode token is not a signed token: %v", err)
	}
	if claims.Viewer != "Protected" || len(claims.Capabilities) != len(AllCapabilities()) {
		t.Errorf("open-mode claims = %+v", claims)
	}
	var resp LineageResponse
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/lineage?start=report", sessionHeader(sess.Token), nil, &resp); st != http.StatusOK || resp.Viewer != "Protected" {
		t.Errorf("open-mode token lineage: status=%d viewer=%q", st, resp.Viewer)
	}

	// A second open-mode server (different ephemeral key) refuses it:
	// process-bound lifetime, like the old session table.
	srv2, _ := v2TestServer(t)
	var apiErr APIError
	if st := doJSON(t, http.MethodGet, srv2.URL+"/v2/lineage?start=report", sessionHeader(sess.Token), nil, &apiErr); st != http.StatusUnauthorized {
		t.Errorf("foreign ephemeral token status = %d, want 401", st)
	}
}

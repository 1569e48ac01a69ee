package plusclient

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
)

// newAuthServer serves a MemBackend with REQUIRED token auth and returns
// the keyring that signs for it.
func newAuthServer(t *testing.T) (*plus.Keyring, *httptest.Server) {
	t.Helper()
	kr, err := plus.NewKeyring(plus.Key{ID: "k1", Secret: []byte("sdk-test-secret-material")})
	if err != nil {
		t.Fatal(err)
	}
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(m, lat), plus.WithAuth(plus.AuthConfig{Keyring: kr, Require: true}))
	plusql.Attach(srv, plusql.NewEngine(m, lat))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return kr, ts
}

// mintOffline is the operator bootstrap: a token signed straight from
// the keyring, as `plusctl session mint` would.
func mintOffline(t *testing.T, kr *plus.Keyring, viewer string, ttl time.Duration, caps ...plus.Capability) string {
	t.Helper()
	if len(caps) == 0 {
		caps = plus.AllCapabilities()
	}
	now := time.Now()
	tok, err := kr.Mint(plus.Claims{
		Viewer: viewer, Capabilities: caps,
		IssuedAt: now.Unix(), ExpiresAt: now.Add(ttl).Unix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestAuthSmoke is the CI auth smoke case: mint a token, batch through
// it, follow the change feed with it, and watch a capability-less token
// bounce with a typed 403.
func TestAuthSmoke(t *testing.T) {
	ctx := context.Background()
	kr, ts := newAuthServer(t)

	// Bootstrap (offline mint) -> server-side attenuated session.
	boot := New(ts.URL, WithToken(mintOffline(t, kr, "Protected", time.Hour)))
	sess, err := boot.Mint(ctx, SessionRequest{Capabilities: []string{"ingest", "replicate", "query"}})
	if err != nil {
		t.Fatal(err)
	}

	// Batch with the minted session.
	c := New(ts.URL, WithToken(sess.Token))
	br, err := c.Batch(ctx, fixtureBatch())
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if br.Revision == 0 || br.Cursor == "" {
		t.Fatalf("batch response = %+v", br)
	}

	// Follow from the beginning: all 8 changes arrive.
	events, _, err := c.Changes(ctx, "", ChangesOptions{})
	if err != nil {
		t.Fatalf("changes: %v", err)
	}
	nchanges := 0
	for _, ev := range events {
		if ev.Type == EventChange {
			nchanges++
		}
	}
	if nchanges != 8 {
		t.Errorf("followed %d changes, want 8", nchanges)
	}

	// Protected lineage works through the session's viewer.
	res, err := c.Lineage(ctx, LineageRequest{Start: "report"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewer != "Protected" {
		t.Errorf("lineage viewer = %q", res.Viewer)
	}

	// A query-only token cannot replicate: typed 403.
	queryOnly := New(ts.URL, WithToken(mintOffline(t, kr, "Public", time.Hour, plus.CapQuery)))
	if _, _, err := queryOnly.Changes(ctx, "", ChangesOptions{}); !errors.Is(err, ErrForbidden) {
		t.Errorf("query-only changes error = %v, want ErrForbidden", err)
	}
	if err := queryOnly.Follow(ctx, "", FollowOptions{}, func(Event) error { return nil }); !errors.Is(err, ErrForbidden) {
		t.Errorf("query-only follow error = %v, want ErrForbidden", err)
	}
	if _, err := queryOnly.Batch(ctx, fixtureBatch()); !errors.Is(err, ErrForbidden) {
		t.Errorf("query-only batch error = %v, want ErrForbidden", err)
	}

	// No token at all: typed 401.
	anon := New(ts.URL)
	if _, err := anon.Batch(ctx, fixtureBatch()); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous batch error = %v, want ErrUnauthorized", err)
	}
	var apiErr *APIError
	if _, err := anon.Lineage(ctx, LineageRequest{Start: "report"}); !errors.As(err, &apiErr) || apiErr.Code != plus.CodeUnauthorized {
		t.Errorf("anonymous lineage error = %v, want structured unauthorized", err)
	}
}

// TestSDKAutoRefresh: a client session close to expiry is transparently
// re-minted before the next request, so requests keep succeeding past
// the original token's lifetime.
func TestSDKAutoRefresh(t *testing.T) {
	ctx := context.Background()
	kr, ts := newAuthServer(t)

	c := New(ts.URL, WithToken(mintOffline(t, kr, "Protected", time.Hour)))
	if _, err := c.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}
	// A 1s session: the refresh margin clamps to 1s, so every request
	// refreshes.
	sess, err := c.Mint(ctx, SessionRequest{TTLSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	tok0, exp0 := c.Session()
	if tok0 != sess.Token || exp0.IsZero() {
		t.Fatalf("session not adopted: %q %v", tok0, exp0)
	}

	if _, err := c.Lineage(ctx, LineageRequest{Start: "report"}); err != nil {
		t.Fatal(err)
	}
	tok1, _ := c.Session()
	if tok1 == tok0 {
		t.Error("near-expiry session was not refreshed")
	}

	// Outlive the original expiry: requests still succeed on refreshed
	// tokens.
	time.Sleep(1100 * time.Millisecond)
	if _, err := c.Lineage(ctx, LineageRequest{Start: "report"}); err != nil {
		t.Errorf("request after original expiry failed: %v", err)
	}

	// Sanity: the original 1s token itself is now dead.
	stale := New(ts.URL, WithToken(tok0))
	if _, err := stale.Lineage(ctx, LineageRequest{Start: "report"}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("stale token error = %v, want ErrUnauthorized", err)
	}
}

// TestSDKCrossInstanceSession: a session minted against one server works
// against another sharing the keyring — the SDK needs no node affinity.
func TestSDKCrossInstanceSession(t *testing.T) {
	ctx := context.Background()
	kr, tsA := newAuthServer(t)

	// Second node, same keyring, its own backend.
	m2 := plus.NewMemBackend(0)
	t.Cleanup(func() { m2.Close() })
	srv2 := plus.NewServer(plus.NewEngine(m2, privilege.TwoLevel()),
		plus.WithAuth(plus.AuthConfig{Keyring: kr, Require: true}))
	tsB := httptest.NewServer(srv2)
	t.Cleanup(tsB.Close)

	a := New(tsA.URL, WithToken(mintOffline(t, kr, "Protected", time.Hour)))
	sess, err := a.Mint(ctx, SessionRequest{Capabilities: []string{"ingest"}})
	if err != nil {
		t.Fatal(err)
	}
	b := New(tsB.URL, WithToken(sess.Token))
	if _, err := b.Batch(ctx, fixtureBatch()); err != nil {
		t.Errorf("cross-instance batch: %v", err)
	}
}

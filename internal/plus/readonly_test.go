package plus

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/privilege"
)

// newReadOnlyServer serves a MemBackend in follower mode (refusing
// writes, no proxy) and returns it plus the backend.
func newReadOnlyServer(t *testing.T, opts ...ServerOption) (*httptest.Server, *MemBackend) {
	t.Helper()
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	opts = append([]ServerOption{WithReadOnly(nil)}, opts...)
	srv := NewServer(NewEngine(m, privilege.TwoLevel()), opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, m
}

func decodeAPIError(t *testing.T, resp *http.Response) *APIError {
	t.Helper()
	defer resp.Body.Close()
	var e APIError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return &e
}

func TestReadOnlyRefusesWrites(t *testing.T) {
	ts, m := newReadOnlyServer(t)

	writes := []struct{ path, body string }{
		{"/v2/batch", `{"objects":[{"id":"a","kind":"data","name":"x"}]}`},
		{"/v2/opm", `{"artifacts":[{"id":"a","value":"x"}]}`},
		{"/v2/compact", `{}`},
	}
	for _, wr := range writes {
		resp, err := http.Post(ts.URL+wr.path, "application/json", strings.NewReader(wr.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("POST %s: status = %d, want 403", wr.path, resp.StatusCode)
		}
		if e := decodeAPIError(t, resp); e.Code != CodeReadOnly {
			t.Errorf("POST %s: code = %q, want %q", wr.path, e.Code, CodeReadOnly)
		}
	}
	if n := m.NumObjects(); n != 0 {
		t.Errorf("read-only store mutated: %d objects", n)
	}
}

func TestReadOnlyLeavesReadsAlone(t *testing.T) {
	ts, m := newReadOnlyServer(t)
	// The replication apply loop writes the backend directly, below the
	// HTTP surface.
	if _, err := m.Apply(Batch{Objects: []Object{{ID: "a", Kind: Data, Name: "x"}}}); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{
		"/v1/healthz",
		"/v2/objects/a",
		"/v2/lineage?start=a",
		"/v2/snapshot",
		"/v2/opm",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestReadOnlyProxyForwardsWrites(t *testing.T) {
	var got struct {
		method, path, auth string
	}
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.method, got.path, got.auth = r.Method, r.URL.Path, r.Header.Get("Authorization")
		w.WriteHeader(http.StatusAccepted)
	})
	m := NewMemBackend(0)
	defer m.Close()
	srv := NewServer(NewEngine(m, privilege.TwoLevel()), WithReadOnly(proxy))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/batch", strings.NewReader(`{}`))
	req.Header.Set("Authorization", "Bearer original-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("proxied status = %d, want 202", resp.StatusCode)
	}
	if got.method != http.MethodPost || got.path != "/v2/batch" {
		t.Errorf("proxy saw %s %s", got.method, got.path)
	}
	if got.auth != "Bearer original-token" {
		t.Errorf("proxy lost auth header: %q", got.auth)
	}
}

func TestReplicaHealthInHealthz(t *testing.T) {
	fake := &ReplicaHealth{
		Role: "follower", Primary: "http://primary:7601", State: "following",
		AppliedRev: 41, PrimaryRev: 44, LagRevisions: 3, LagSeconds: 1.5,
	}
	ts, _ := newReadOnlyServer(t, WithReplicaHealth(func() *ReplicaHealth { return fake }))

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Replica == nil {
		t.Fatal("healthz has no replica block")
	}
	if h.Replica.Primary != fake.Primary || h.Replica.LagRevisions != 3 {
		t.Errorf("replica block = %+v", h.Replica)
	}
	if s := h.Replica.String(); !strings.Contains(s, "lag 3 revs") {
		t.Errorf("String() = %q", s)
	}
}

// A primary (no WithReplicaHealth) must keep the block absent, so
// followers of followers cannot be configured by accident.
func TestHealthzOmitsReplicaOnPrimary(t *testing.T) {
	m := NewMemBackend(0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(NewEngine(m, privilege.TwoLevel())))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["replica"]; ok {
		t.Error("primary healthz carries a replica block")
	}
}

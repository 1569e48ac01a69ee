package plus

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/graph"
	"repro/internal/privilege"
)

func TestHealthzHandler(t *testing.T) {
	s, _ := openTemp(t)
	putChain(t, s, "a", "b", "c")
	srv := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel())))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var h HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Objects != 3 || h.Edges != 2 {
		t.Errorf("healthz = %+v, want ok/3/2", h)
	}
	if h.Revision != s.Revision() {
		t.Errorf("healthz revision = %d, want %d", h.Revision, s.Revision())
	}
	// The probe reports the name postings, with the probe below counted,
	// and the intern table.
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := sn.FindByName("obj a"); len(got) != 1 {
		t.Fatalf("FindByName = %v, want [a]", got)
	}
	resp3, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var hIdx HealthzResponse
	if err := json.NewDecoder(resp3.Body).Decode(&hIdx); err != nil {
		t.Fatal(err)
	}
	if hIdx.Index == nil {
		t.Fatal("healthz missing index section on a table backend")
	}
	if ix := hIdx.Index; ix.NameEntries != 3 {
		t.Errorf("healthz index = %+v, want 3 name entries", ix)
	}
	if hIdx.Index.Hits == 0 {
		t.Error("healthz index reports no hits after an indexed probe")
	}
	if hIdx.Intern == nil || hIdx.Intern.Strings == 0 || hIdx.Intern.Bytes == 0 {
		t.Errorf("healthz intern = %+v, want non-empty table", hIdx.Intern)
	}

	// Method discipline.
	post, err := http.Post(srv.URL+"/v1/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST healthz status = %d, want 405", post.StatusCode)
	}

	// A closed backend reports unavailable with 503.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed healthz status = %d, want 503", resp2.StatusCode)
	}
	var h2 HealthzResponse
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.Status != "unavailable" {
		t.Errorf("closed healthz = %+v", h2)
	}
}

// healthz probes GET /v1/healthz, requiring a 200.
func healthz(t *testing.T, base string) HealthzResponse {
	t.Helper()
	var h HealthzResponse
	if st := doJSON(t, http.MethodGet, base+"/v1/healthz", nil, nil, &h); st != http.StatusOK {
		t.Fatalf("healthz = %d", st)
	}
	return h
}

func TestHealthzClient(t *testing.T) {
	base, s := testServer(t)
	ingestV2Fixture(t, base)
	if h := healthz(t, base); h.Status != "ok" || h.Objects != s.NumObjects() || h.Edges != s.NumEdges() {
		t.Errorf("healthz = %+v", h)
	}
}

// TestHealthzCacheStats checks the probe surfaces the lineage-cache
// counters of a cache-fronted server: hits, misses and delta-scoped
// eviction activity.
func TestHealthzCacheStats(t *testing.T) {
	s, _ := openTemp(t)
	putChain(t, s, "a", "b", "c")
	ce := NewCachedEngine(NewEngine(s, privilege.TwoLevel()))
	srv := httptest.NewServer(NewCachedServer(ce))
	t.Cleanup(srv.Close)

	req := Request{Start: "c", Direction: graph.Backward}
	if _, err := ce.Lineage(req); err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Lineage(req); err != nil {
		t.Fatal(err)
	}
	// A write inside the closure evicts the entry; healthz reports it.
	if err := s.PutObject(Object{ID: "a", Kind: Data, Name: "a v2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Lineage(req); err != nil {
		t.Fatal(err)
	}
	h := healthz(t, srv.URL)
	if h.LineageCache == nil {
		t.Fatal("healthz missing lineageCache section on a cached server")
	}
	lc := h.LineageCache
	if lc.Hits != 1 || lc.Misses != 2 || lc.DeltaEvictions != 1 || lc.Entries != 1 || lc.ClosureNodes != 3 || lc.CapacityEvictions != 0 {
		t.Errorf("lineage cache stats = %+v, want 1 hit, 2 misses, 1 eviction, 1 entry of 3 closure nodes", lc)
	}
	if h.QueryCache != nil {
		t.Error("queryCache present without the query subsystem attached")
	}

	// An uncached server reports no cache section at all.
	plain := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel())))
	t.Cleanup(plain.Close)
	if h2 := healthz(t, plain.URL); h2.LineageCache != nil {
		t.Error("lineageCache present on an uncached server")
	}
}

// TestHealthzMemBackend exercises the probe over the volatile backend,
// where Size is 0 but counts and revision still flow.
func TestHealthzMemBackend(t *testing.T) {
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	srv := httptest.NewServer(NewServer(NewEngine(m, privilege.TwoLevel())))
	t.Cleanup(srv.Close)
	one := BatchRequest{Objects: []Object{{ID: "x", Kind: Data, Name: "x"}}}
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", nil, one, nil); st != http.StatusOK {
		t.Fatalf("batch = %d", st)
	}
	if h := healthz(t, srv.URL); h.Status != "ok" || h.Objects != 1 || h.Revision != 1 {
		t.Errorf("mem healthz = %+v", h)
	}
}

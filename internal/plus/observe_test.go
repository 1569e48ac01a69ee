package plus

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/privilege"
)

// obsServer builds an open-mode MemBackend server with a live registry,
// a record-everything slow-query ring and backend op latency — the full
// observability stack plusd -slow-query 1ns would wire.
func obsServer(t *testing.T) (*httptest.Server, *Server, *obs.Registry) {
	t.Helper()
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	reg := obs.NewRegistry()
	o := NewObservability(reg, obs.NewSlowLog(64, 0), nil)
	b := NewObserveBackend(m, reg)
	srv := NewCachedServer(NewCachedEngine(NewEngine(b, privilege.TwoLevel())), WithObservability(o))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, reg
}

// get runs one GET with optional headers, returning status, body and
// the response headers.
func get(t *testing.T, url string, headers map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func TestMetricsEndpointFormats(t *testing.T) {
	ts, _, _ := obsServer(t)
	ingestV2Fixture(t, ts.URL)
	if st, _, _ := lineage(t, ts.URL, "start=report&direction=ancestors", nil); st != http.StatusOK {
		t.Fatalf("lineage = %d", st)
	}

	st, body, hdr := get(t, ts.URL+"/v2/metrics", nil)
	if st != http.StatusOK {
		t.Fatalf("GET /v2/metrics = %d: %s", st, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE plus_http_requests_total counter",
		"# TYPE plus_http_request_seconds summary",
		"plus_store_objects 4",
		"plus_store_edges 3",
		// One snapshot for the one lineage; nothing was written after
		// it, so no bucket was copied.
		"plus_store_snapshots_built_total 1",
		"plus_store_bucket_copies_total 0",
		"plus_store_records_copied_total 0",
		`plus_backend_op_seconds_count{op="apply"}`,
		`plus_lineage_seconds_count{phase="total"}`,
		"plus_changefeed_ring_depth",
		"plus_lineage_cache_entries 1",
		"plus_lineage_cache_closure_nodes 4",
		"plus_lineage_cache_capacity_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	st, body, hdr = get(t, ts.URL+"/v2/metrics?format=json", nil)
	if st != http.StatusOK {
		t.Fatalf("GET /v2/metrics?format=json = %d: %s", st, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json content type = %q", ct)
	}
	var fams []obs.Family
	if err := json.Unmarshal(body, &fams); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	found := false
	for _, f := range fams {
		if f.Name == "plus_store_objects" {
			found = true
			if len(f.Series) != 1 || f.Series[0].Value != 4 {
				t.Errorf("plus_store_objects = %+v, want single series of 4", f.Series)
			}
		}
	}
	if !found {
		t.Error("json snapshot missing plus_store_objects")
	}

	if st, _, _ = get(t, ts.URL+"/v2/metrics?format=xml", nil); st != http.StatusBadRequest {
		t.Errorf("unknown format status = %d, want 400", st)
	}
}

// TestMetricsRequireAdminCapability: on an authenticated server the
// registry (and slow-query ring) are operator surface, not public.
func TestMetricsRequireAdminCapability(t *testing.T) {
	kr := testKeyring(t)
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	reg := obs.NewRegistry()
	srv := NewServer(NewEngine(m, privilege.TwoLevel()),
		WithAuth(AuthConfig{Keyring: kr, Require: true}),
		WithObservability(NewObservability(reg, obs.NewSlowLog(8, 0), nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	reader := operatorToken(t, kr, "Protected", CapQuery)
	admin := operatorToken(t, kr, "Protected", CapAdmin)
	for _, path := range []string{"/v2/metrics", "/v2/slowlog"} {
		if st, _, _ := get(t, ts.URL+path, nil); st != http.StatusUnauthorized {
			t.Errorf("tokenless GET %s = %d, want 401", path, st)
		}
		if st, _, _ := get(t, ts.URL+path, sessionHeader(reader)); st != http.StatusForbidden {
			t.Errorf("query-cap GET %s = %d, want 403", path, st)
		}
		if st, _, _ := get(t, ts.URL+path, sessionHeader(admin)); st != http.StatusOK {
			t.Errorf("admin GET %s = %d, want 200", path, st)
		}
	}
}

// TestRequestIDTracing: a client-supplied trace ID is echoed on the
// response and lands in the slow-query entry the lineage engine
// records; absent one, the middleware mints a 16-hex-char ID.
func TestRequestIDTracing(t *testing.T) {
	ts, _, _ := obsServer(t)
	ingestV2Fixture(t, ts.URL)

	const reqID = "deadbeef00001111"
	st, body, hdr := get(t, ts.URL+"/v2/lineage?start=report&direction=ancestors",
		map[string]string{HeaderRequestID: reqID})
	if st != http.StatusOK {
		t.Fatalf("lineage = %d: %s", st, body)
	}
	if got := hdr.Get(HeaderRequestID); got != reqID {
		t.Errorf("echoed request id = %q, want %q", got, reqID)
	}

	st, body, _ = get(t, ts.URL+"/v2/slowlog", nil)
	if st != http.StatusOK {
		t.Fatalf("slowlog = %d: %s", st, body)
	}
	var entries []obs.SlowEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	var hit *obs.SlowEntry
	for i := range entries {
		if entries[i].RequestID == reqID {
			hit = &entries[i]
		}
	}
	if hit == nil {
		t.Fatalf("no slow-query entry carries request id %q: %s", reqID, body)
	}
	if hit.Kind != "lineage" || !strings.Contains(hit.Query, "start=report") {
		t.Errorf("entry = %+v, want lineage start=report", hit)
	}
	if len(hit.Phases) != 3 {
		t.Errorf("entry phases = %+v, want dbAccess/build/protect", hit.Phases)
	}

	// No header: the middleware mints one.
	st, _, hdr = get(t, ts.URL+"/v1/healthz", nil)
	if st != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if got := hdr.Get(HeaderRequestID); len(got) != 16 {
		t.Errorf("minted request id = %q, want 16 hex chars", got)
	}
}

// TestHealthzAndStatsReportChangeFeed: the change-feed window (base,
// depth, horizon, epoch) the follower protocol depends on is visible in
// the healthz probe — it used to be unobservable.
func TestHealthzAndStatsReportChangeFeed(t *testing.T) {
	run := func(t *testing.T, base string) {
		ingestV2Fixture(t, base)
		h := healthz(t, base)
		if h.ChangeFeed == nil {
			t.Fatal("healthz missing changeFeed block")
		}
		if h.ChangeFeed.Horizon <= 0 || h.ChangeFeed.Epoch == "" {
			t.Errorf("changeFeed = %+v, want positive horizon and an epoch", h.ChangeFeed)
		}
		if h.ChangeFeed.Revision != h.Revision {
			t.Errorf("changeFeed revision %d != healthz revision %d", h.ChangeFeed.Revision, h.Revision)
		}
		if h.ChangeFeed.Depth <= 0 {
			t.Errorf("changeFeed = %+v, want resident changes after ingest", h.ChangeFeed)
		}
	}
	t.Run("log", func(t *testing.T) {
		base, _ := testServer(t)
		run(t, base)
	})
	t.Run("mem", func(t *testing.T) {
		m := NewMemBackend(0)
		t.Cleanup(func() { m.Close() })
		ts := httptest.NewServer(NewServer(NewEngine(m, privilege.TwoLevel())))
		t.Cleanup(ts.Close)
		run(t, ts.URL)
	})
}

// TestKeyringReloadSwapsLiveKeyring: SIGHUP's substance — a keyring file
// rewritten on disk swaps in atomically, old-key tokens die, new-key
// tokens work, and a corrupt file leaves the serving keyring untouched.
func TestKeyringReloadSwapsLiveKeyring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	write("k1:secret-secret-secret-aaaa\n")
	kr1, err := LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	reg := obs.NewRegistry()
	srv := NewServer(NewEngine(m, privilege.TwoLevel()),
		WithAuth(AuthConfig{Keyring: kr1, Require: true}),
		WithObservability(NewObservability(reg, nil, nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	tok1 := operatorToken(t, kr1, "Protected")
	if st, _, _ := get(t, ts.URL+"/v2/metrics", sessionHeader(tok1)); st != http.StatusOK {
		t.Fatalf("pre-reload token status = %d, want 200", st)
	}

	write("k2:secret-secret-secret-bbbb\n")
	if err := srv.ReloadKeyringFromFile(path); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if st, _, _ := get(t, ts.URL+"/v2/metrics", sessionHeader(tok1)); st != http.StatusUnauthorized {
		t.Errorf("rotated-out token status = %d, want 401", st)
	}
	kr2, err := LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	tok2 := operatorToken(t, kr2, "Protected")
	if st, _, _ := get(t, ts.URL+"/v2/metrics", sessionHeader(tok2)); st != http.StatusOK {
		t.Errorf("new-key token status = %d, want 200", st)
	}

	// A corrupt file must not take down the serving keyring.
	write("this is not a keyring\n")
	if err := srv.ReloadKeyringFromFile(path); err == nil {
		t.Fatal("reload of corrupt file succeeded, want error")
	}
	if st, _, _ := get(t, ts.URL+"/v2/metrics", sessionHeader(tok2)); st != http.StatusOK {
		t.Errorf("token after failed reload status = %d, want 200 (keyring kept)", st)
	}

	wantOutcome := map[string]float64{"ok": 1, "error": 1}
	for _, f := range reg.Gather() {
		if f.Name != "plus_keyring_reloads_total" {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Name == "outcome" && s.Value != wantOutcome[l.Value] {
					t.Errorf("plus_keyring_reloads_total{outcome=%q} = %v, want %v",
						l.Value, s.Value, wantOutcome[l.Value])
				}
			}
		}
	}
}

// seriesCounts flattens a gathered snapshot into comparable cumulative
// readings: counter values and summary counts, keyed by family+labels.
func seriesCounts(fams []obs.Family) map[string]float64 {
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Series {
			key := f.Name
			for _, l := range s.Labels {
				key += "|" + l.Name + "=" + l.Value
			}
			switch f.Type {
			case obs.TypeCounter:
				out[key] = s.Value
			case obs.TypeSummary:
				out[key] = float64(s.Count)
			}
		}
	}
	return out
}

// TestMetricsUnderConcurrentTraffic hammers ingest, lineage queries and
// metric scrapes concurrently (the race detector does the memory-model
// auditing), then checks cumulative series never move backwards and
// summary quantiles are ordered.
func TestMetricsUnderConcurrentTraffic(t *testing.T) {
	ts, _, reg := obsServer(t)
	ingestV2Fixture(t, ts.URL)
	// Requests from the worker goroutines must not t.Fatal, so their
	// failures are dropped here and surface in the request counts below.
	send := func(method, path, body string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}

	const (
		workers = 4
		iters   = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				send(http.MethodPost, "/v2/batch", fmt.Sprintf(
					`{"objects":[{"id":"obj-%d-%d","kind":"data","name":"x"}],"edges":[{"from":"obj-%[1]d-%[2]d","to":"report","label":"input-to"}]}`, w, i))
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				send(http.MethodGet, "/v2/lineage?start=report&direction=ancestors", "")
				send(http.MethodGet, "/v1/healthz", "")
			}
		}()
		go func(w int) {
			defer wg.Done()
			format := ""
			if w%2 == 1 {
				format = "?format=json"
			}
			for i := 0; i < iters; i++ {
				st, body, _ := get(t, ts.URL+"/v2/metrics"+format, nil)
				if st != http.StatusOK {
					t.Errorf("scrape = %d: %s", st, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	before := seriesCounts(reg.Gather())
	for i := 0; i < 5; i++ {
		if st, _, _ := lineage(t, ts.URL, "start=report&direction=ancestors", nil); st != http.StatusOK {
			t.Fatalf("lineage = %d", st)
		}
	}
	after := seriesCounts(reg.Gather())
	if len(before) == 0 {
		t.Fatal("no cumulative series gathered")
	}
	for key, b := range before {
		if a, ok := after[key]; !ok || a < b {
			t.Errorf("series %s moved backwards: %v -> %v", key, b, a)
		}
	}
	if after["plus_http_requests_total|route=/v2/lineage|method=GET|status=200"] < float64(workers*iters) {
		t.Errorf("lineage request count = %v, want >= %d",
			after["plus_http_requests_total|route=/v2/lineage|method=GET|status=200"], workers*iters)
	}

	for _, f := range reg.Gather() {
		if f.Type != obs.TypeSummary {
			continue
		}
		for _, s := range f.Series {
			q := s.Quantiles
			if q["0.5"] > q["0.95"] || q["0.95"] > q["0.99"] {
				t.Errorf("%s quantiles out of order: %+v", f.Name, q)
			}
		}
	}
}

// TestBackendOpCounts pins how many timed backend operations a fixed
// request sequence costs, on both backends, and that healthz carries the
// index and changeFeed blocks for each: one batch (one apply; its
// surrogate-id check asks the table directly, so get_object counts only
// client reads), one lineage miss (one snapshot), one GET
// /v2/objects/{id} (one object read) and one /v2/changes read (one feed
// read). A second batch of three surrogates adds one apply and no
// get_object.
func TestBackendOpCounts(t *testing.T) {
	for _, h := range conformanceHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			b, _ := h.open(t)
			reg := obs.NewRegistry()
			b = NewObserveBackend(b, reg)
			srv := NewCachedServer(NewCachedEngine(NewEngine(b, privilege.TwoLevel())),
				WithObservability(NewObservability(reg, nil, nil)))
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)

			br := ingestV2Fixture(t, ts.URL)
			if st, _, _ := lineage(t, ts.URL, "start=report&direction=ancestors", nil); st != http.StatusOK {
				t.Fatalf("lineage = %d", st)
			}
			if st := doJSON(t, http.MethodGet, ts.URL+"/v2/objects/report", nil, nil, nil); st != http.StatusOK {
				t.Fatalf("GET /v2/objects/report = %d", st)
			}
			if st, body, _ := get(t, ts.URL+"/v2/changes?cursor="+br.Cursor, nil); st != http.StatusOK {
				t.Fatalf("GET /v2/changes = %d: %s", st, body)
			}
			hz := healthz(t, ts.URL)
			if hz.Index == nil || hz.ChangeFeed == nil {
				t.Errorf("healthz index = %v, changeFeed = %v; want both blocks", hz.Index, hz.ChangeFeed)
			}

			counts := seriesCounts(reg.Gather())
			for op, want := range map[string]float64{"apply": 1, "get_object": 1, "snapshot": 1, "changes_since": 1} {
				if got := counts["plus_backend_op_seconds|op="+op]; got != want {
					t.Errorf("plus_backend_op_seconds_count{op=%q} = %v, want %v", op, got, want)
				}
			}

			three := BatchRequest{Objects: []Object{{ID: "secret", Kind: Data, Lowest: "Protected", Protect: "surrogate"}}}
			for i := 0; i < 3; i++ {
				three.Surrogates = append(three.Surrogates, SurrogateSpec{ForID: "secret", ID: fmt.Sprintf("secret-s%d", i), Name: "anon"})
			}
			if st := doJSON(t, http.MethodPost, ts.URL+"/v2/batch", nil, three, nil); st != http.StatusOK {
				t.Fatalf("batch of three surrogates = %d", st)
			}
			counts = seriesCounts(reg.Gather())
			for op, want := range map[string]float64{"apply": 2, "get_object": 1} {
				if got := counts["plus_backend_op_seconds|op="+op]; got != want {
					t.Errorf("plus_backend_op_seconds_count{op=%q} = %v, want %v", op, got, want)
				}
			}
		})
	}
}

package plus

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/privilege"
)

// testServer serves a log-backed store over HTTP and returns its base URL.
func testServer(t *testing.T) (string, *LogBackend) {
	t.Helper()
	s, _ := openTemp(t)
	srv := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel())))
	t.Cleanup(srv.Close)
	return srv.URL, s
}

// asViewer is the request header asserting viewer as the principal.
func asViewer(viewer string) map[string]string {
	return map[string]string{HeaderViewer: viewer}
}

// lineage runs GET /v2/lineage?query for headers' principal, decoding a
// 200 into resp and anything else into apiErr.
func lineage(t *testing.T, base, query string, headers map[string]string) (int, LineageResponse, APIError) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v2/lineage?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp LineageResponse
	var apiErr APIError
	out := interface{}(&resp)
	if hresp.StatusCode != http.StatusOK {
		out = &apiErr
	}
	if err := json.NewDecoder(hresp.Body).Decode(out); err != nil {
		t.Fatalf("lineage %s: decode: %v", query, err)
	}
	return hresp.StatusCode, resp, apiErr
}

func TestServerRoundTrip(t *testing.T) {
	base, s := testServer(t)
	ingestV2Fixture(t, base)

	var o Object
	if st := doJSON(t, http.MethodGet, base+"/v2/objects/proc", asViewer("Protected"), nil, &o); st != http.StatusOK {
		t.Fatalf("GET /v2/objects/proc = %d", st)
	}
	if o.Name != "secret analytic" || o.Lowest != "Protected" {
		t.Errorf("GetObject = %+v", o)
	}

	var h HealthzResponse
	if st := doJSON(t, http.MethodGet, base+"/v1/healthz", nil, nil, &h); st != http.StatusOK {
		t.Fatalf("healthz = %d", st)
	}
	if h.Objects != 4 || h.Edges != 3 || s.Size() == 0 {
		t.Errorf("healthz = %+v, log bytes %d", h, s.Size())
	}
}

func TestServerLineagePublicViewer(t *testing.T) {
	base, _ := testServer(t)
	ingestV2Fixture(t, base)

	st, resp, apiErr := lineage(t, base, "start=report&direction=ancestors", nil)
	if st != http.StatusOK {
		t.Fatalf("lineage = %d %+v", st, apiErr)
	}
	nodeIDs := map[string]bool{}
	surrNodes := 0
	for _, n := range resp.Nodes {
		nodeIDs[n.ID] = true
		if n.Surrogate {
			surrNodes++
		}
	}
	if nodeIDs["proc"] {
		t.Error("sensitive node leaked over HTTP")
	}
	if !nodeIDs["proc'"] || surrNodes != 1 {
		t.Errorf("surrogate node missing: %+v", resp.Nodes)
	}
	foundSurrEdge := false
	for _, e := range resp.Edges {
		if e.From == "src" && e.To == "out" {
			if !e.Surrogate {
				t.Error("src->out should be flagged as surrogate edge")
			}
			foundSurrEdge = true
		}
	}
	if !foundSurrEdge {
		t.Errorf("surrogate edge missing: %+v", resp.Edges)
	}
	if resp.PathUtility <= 0 || resp.PathUtility > 1 {
		t.Errorf("pathUtility = %v", resp.PathUtility)
	}
	if resp.NodeUtility <= 0 || resp.NodeUtility > 1 {
		t.Errorf("nodeUtility = %v", resp.NodeUtility)
	}
	if resp.Timing.TotalUS < 0 {
		t.Errorf("timing = %+v", resp.Timing)
	}
}

func TestServerLineageModesAndViewers(t *testing.T) {
	base, _ := testServer(t)
	ingestV2Fixture(t, base)

	st, hide, _ := lineage(t, base, "start=report&mode=hide", nil)
	if st != http.StatusOK {
		t.Fatalf("hide lineage = %d", st)
	}
	for _, n := range hide.Nodes {
		if n.ID == "proc'" || n.ID == "proc" {
			t.Error("hide mode returned a protected or surrogate node")
		}
	}

	st, full, _ := lineage(t, base, "start=report", asViewer("Protected"))
	if st != http.StatusOK {
		t.Fatalf("Protected lineage = %d", st)
	}
	found := false
	for _, n := range full.Nodes {
		if n.ID == "proc" {
			found = true
		}
	}
	if !found {
		t.Error("privileged viewer did not get the original node")
	}
}

func TestServerErrorStatuses(t *testing.T) {
	base, _ := testServer(t)
	ingestV2Fixture(t, base)

	var apiErr APIError
	if st := doJSON(t, http.MethodGet, base+"/v2/objects/nope", nil, nil, &apiErr); st != http.StatusNotFound || apiErr.Code != CodeNotFound {
		t.Errorf("missing object = %d %+v", st, apiErr)
	}
	for _, tc := range []struct {
		query, viewer string
		wantStatus    int
		wantCode      string
	}{
		{"start=nope", "", http.StatusNotFound, CodeNotFound},
		{"start=report&mode=banana", "", http.StatusBadRequest, CodeBadRequest},
		{"start=report", "Bogus", http.StatusBadRequest, CodeUnknownViewer},
		{"start=report&direction=sideways", "", http.StatusBadRequest, CodeBadRequest},
	} {
		var headers map[string]string
		if tc.viewer != "" {
			headers = asViewer(tc.viewer)
		}
		if st, _, apiErr := lineage(t, base, tc.query, headers); st != tc.wantStatus || apiErr.Code != tc.wantCode {
			t.Errorf("lineage %s as %q = %d %+v, want %d %q", tc.query, tc.viewer, st, apiErr, tc.wantStatus, tc.wantCode)
		}
	}
	for _, bad := range []BatchRequest{
		{Objects: []Object{{ID: "", Kind: Data}}},
		{Edges: []Edge{{From: "report", To: "ghost"}}},
	} {
		if st := doJSON(t, http.MethodPost, base+"/v2/batch", nil, bad, nil); st != http.StatusBadRequest {
			t.Errorf("invalid batch %+v accepted over HTTP: %d", bad, st)
		}
	}
}

// TestServerRejectsWrongMethods: a 405 advertises the admissible methods.
func TestServerRejectsWrongMethods(t *testing.T) {
	base, _ := testServer(t)
	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v2/batch", "POST"},
		{http.MethodPost, "/v2/lineage", "GET"},
		{http.MethodDelete, "/v2/snapshot", "GET"},
		{http.MethodPost, "/v2/objects/xyz", "GET"},
		{http.MethodPut, "/v2/opm", "GET, POST"},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q, want application/json", tc.method, tc.path, ct)
		}
	}
}

func TestServerOPMRoundTrip(t *testing.T) {
	base, _ := testServer(t)
	ingestV2Fixture(t, base)

	resp, err := http.Get(base + "/v2/opm")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(doc), `"artifacts"`) {
		t.Fatalf("export = %d, shape wrong: %s", resp.StatusCode, doc)
	}

	// Import into a second, empty server.
	base2, s2 := testServer(t)
	resp, err = http.Post(base2+"/v2/opm", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import = %d", resp.StatusCode)
	}
	if s2.NumObjects() != 4 || s2.NumEdges() != 3 {
		t.Errorf("imported %d objects %d edges", s2.NumObjects(), s2.NumEdges())
	}
	var o Object
	st := doJSON(t, http.MethodGet, base2+"/v2/objects/proc", asViewer("Protected"), nil, &o)
	if st != http.StatusOK || o.Lowest != "Protected" || o.Protect != "surrogate" {
		t.Errorf("sensitivity lost over HTTP OPM: %d %+v", st, o)
	}
	resp, err = http.Post(base2+"/v2/opm", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("garbage import = %d %+v", resp.StatusCode, e)
	}
}

func TestServerLineageFilters(t *testing.T) {
	base, _ := testServer(t)
	ingestV2Fixture(t, base)
	_, resp, _ := lineage(t, base, "start=report&label=input-to", asViewer("Protected"))
	if len(resp.Nodes) != 2 {
		t.Errorf("label filter over HTTP: %+v", resp.Nodes)
	}
	_, resp, _ = lineage(t, base, "start=report&kind=data", asViewer("Protected"))
	if len(resp.Nodes) == 0 {
		t.Error("kind filter returned nothing")
	}
	for _, n := range resp.Nodes {
		if n.ID == "proc" {
			t.Error("kind filter leaked an invocation over HTTP")
		}
	}
	if st, _, _ := lineage(t, base, "start=report&kind=banana", nil); st != http.StatusBadRequest {
		t.Errorf("bad kind = %d", st)
	}
}

func TestCachedServerServesAndInvalidates(t *testing.T) {
	s, _ := openTemp(t)
	engine := NewCachedEngine(NewEngine(s, privilege.TwoLevel()))
	srv := httptest.NewServer(NewCachedServer(engine))
	defer srv.Close()
	ingestV2Fixture(t, srv.URL)

	_, r1, _ := lineage(t, srv.URL, "start=report", nil)
	st, first, _ := get(t, srv.URL+"/v2/lineage?start=report", nil)
	if st != http.StatusOK {
		t.Fatalf("second lineage = %d", st)
	}
	if _, again, _ := get(t, srv.URL+"/v2/lineage?start=report", nil); !bytes.Equal(again, first) {
		t.Errorf("a cache hit's body differs from the previous hit's:\n%s\n%s", first, again)
	}
	if engine.Stats().Hits == 0 {
		t.Error("second HTTP query did not hit the cache")
	}
	// Mutation invalidates; the next answer reflects the new object.
	extra := BatchRequest{
		Objects: []Object{{ID: "extra", Kind: Data, Name: "x"}},
		Edges:   []Edge{{From: "extra", To: "report"}},
	}
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", nil, extra, nil); st != http.StatusOK {
		t.Fatalf("batch = %d", st)
	}
	_, r3, _ := lineage(t, srv.URL, "start=report", nil)
	if len(r3.Nodes) != len(r1.Nodes)+1 {
		t.Errorf("stale cached answer: %d nodes vs %d+1", len(r3.Nodes), len(r1.Nodes))
	}
}

// TestServerRejectsOversizedBody: small-request endpoints cap their body
// at maxBodyBytes.
func TestServerRejectsOversizedBody(t *testing.T) {
	base, _ := testServer(t)
	big := strings.NewReader(`{"viewer":"` + strings.Repeat("a", maxBodyBytes+10) + `"}`)
	resp, err := http.Post(base+"/v2/sessions", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	// Uncapped, the body would decode and fail as an unknown viewer.
	if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("oversized body = %d %+v, want 400 %q", resp.StatusCode, e, CodeBadRequest)
	}
}

func TestServerRejectsUnknownFields(t *testing.T) {
	base, s := testServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/v2/batch", `{"objects":[{"id":"x","kind":"data","bogusField":1}]}`},
		{"/v2/sessions", `{"viewer":"Public","bogusField":1}`},
	} {
		resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: unknown field accepted: %d", tc.path, resp.StatusCode)
		}
	}
	if s.NumObjects() != 0 {
		t.Error("object with an unknown field stored")
	}
}

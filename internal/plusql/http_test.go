package plusql

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/plus"
	"repro/internal/privilege"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	be := exampleBackend(t)
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(be, lat))
	Attach(srv, NewEngine(be, lat))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// asViewer is the request header asserting viewer as the principal.
func asViewer(viewer string) map[string]string {
	return map[string]string{plus.HeaderViewer: viewer}
}

// httpQuery posts body to url's POST /v2/query with headers, returning the
// decoded answer on a 200 and the structured error otherwise.
func httpQuery(t *testing.T, url string, headers map[string]string, body interface{}) (*QueryResponse, *plus.APIError) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v2/query", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := &plus.APIError{Status: resp.StatusCode}
		if err := json.NewDecoder(resp.Body).Decode(apiErr); err != nil {
			t.Fatalf("error body: %v", err)
		}
		return nil, apiErr
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, nil
}

// postQuery is httpQuery for requests that must succeed.
func postQuery(t *testing.T, url string, headers map[string]string, req QueryRequest) *QueryResponse {
	t.Helper()
	resp, apiErr := httpQuery(t, url, headers, req)
	if apiErr != nil {
		t.Fatalf("query %q: %d %s: %s", req.Query, apiErr.Status, apiErr.Code, apiErr.Message)
	}
	return resp
}

func TestHTTPQuery(t *testing.T) {
	resp := postQuery(t, testServer(t).URL, nil, QueryRequest{
		Query:   `ancestor*(X, "b"), kind(X, data)`,
		Explain: true,
	})
	if resp.Viewer != "Public" || resp.Mode != "surrogate" {
		t.Errorf("defaults: viewer=%q mode=%q", resp.Viewer, resp.Mode)
	}
	// Public ancestors of b are {a, d, p~}; the kind(X, data) filter
	// drops the surrogate (its released kind is invocation).
	if len(resp.Rows) != 2 {
		t.Errorf("rows = %+v, want exactly [a d]", resp.Rows)
	}
	for _, row := range resp.Rows {
		for _, bnd := range row {
			if bnd.ID == "p" || bnd.ID == "c" {
				t.Errorf("policy leak over HTTP: %q", bnd.ID)
			}
		}
	}
	if !strings.Contains(resp.Plan, "plan (planned):") {
		t.Errorf("explain missing plan: %q", resp.Plan)
	}
	if resp.Stats.Examined == 0 {
		t.Error("stats not populated")
	}
}

func TestHTTPQueryViewer(t *testing.T) {
	resp := postQuery(t, testServer(t).URL, asViewer("Protected"), QueryRequest{Query: `ancestor*(X, "b")`})
	found := map[string]bool{}
	for _, row := range resp.Rows {
		found[row[0].ID] = true
	}
	for _, want := range []string{"a", "c", "d", "p"} {
		if !found[want] {
			t.Errorf("Protected viewer missing %q in %v", want, found)
		}
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	ts := testServer(t)

	for _, tc := range []struct {
		name        string
		headers     map[string]string
		body        interface{}
		wantCode    string
		wantMessage string
	}{
		// Parse errors surface as 400 with the position in the message.
		{"parse error", nil, QueryRequest{Query: `bogus(X)`}, plus.CodeBadRequest, "1:1"},
		{"empty query", nil, QueryRequest{Query: ``}, plus.CodeBadRequest, "empty query"},
		{"unknown viewer", asViewer("Nobody"), QueryRequest{Query: `node(X)`}, plus.CodeUnknownViewer, "Nobody"},
		// The viewer is the principal; a body naming one is an unknown field.
		{"viewer in body", nil, map[string]string{"query": `node(X)`, "viewer": "Protected"}, plus.CodeBadRequest, "viewer"},
	} {
		_, apiErr := httpQuery(t, ts.URL, tc.headers, tc.body)
		if apiErr == nil || apiErr.Status != http.StatusBadRequest || apiErr.Code != tc.wantCode ||
			!strings.Contains(apiErr.Message, tc.wantMessage) {
			t.Errorf("%s: error = %+v, want 400 %q mentioning %q", tc.name, apiErr, tc.wantCode, tc.wantMessage)
		}
	}

	// Method not allowed is the structured body with an Allow header.
	resp, err := http.Get(ts.URL + "/v2/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/query = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodPost {
		t.Errorf("Allow = %q, want POST", got)
	}
	var apiErr plus.APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Code != plus.CodeMethodNotAllowed {
		t.Errorf("405 body = %+v, %v", apiErr, err)
	}

	// The v1 query route is retired.
	gone, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"query":"node(X)"}`))
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/query = %d, want 404", gone.StatusCode)
	}
}

func TestHTTPQueryLimit(t *testing.T) {
	ts := testServer(t)
	resp := postQuery(t, ts.URL, asViewer("Protected"), QueryRequest{Query: `node(X)`, Limit: 2})
	if len(resp.Rows) != 2 {
		t.Errorf("limit 2 returned %d rows", len(resp.Rows))
	}
	// More nodes existed, so the response says the page is partial.
	if !resp.Truncated {
		t.Error("truncated flag not set on a cut-short page")
	}

	// A limit wide enough for everything is not flagged.
	resp = postQuery(t, ts.URL, asViewer("Protected"), QueryRequest{Query: `node(X)`, Limit: 100})
	if resp.Truncated {
		t.Error("truncated flag set on a complete result")
	}

	// The query's own in-text limit is the client's choice, not
	// truncation.
	resp = postQuery(t, ts.URL, asViewer("Protected"), QueryRequest{Query: `node(X) limit 2`})
	if len(resp.Rows) != 2 || resp.Truncated {
		t.Errorf("in-text limit: rows=%d truncated=%v, want 2/false", len(resp.Rows), resp.Truncated)
	}
}

package plus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/privilege"
)

// v2TestServer wires a MemBackend-backed server with the two-level
// lattice and returns the httptest server plus the backend for direct
// manipulation.
func v2TestServer(t *testing.T) (*httptest.Server, *MemBackend) {
	t.Helper()
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	srv := httptest.NewServer(NewServer(NewEngine(m, privilege.TwoLevel())))
	t.Cleanup(srv.Close)
	return srv, m
}

// v2Fixture is the standard test graph as one batch.
func v2Fixture() BatchRequest {
	return BatchRequest{
		Objects: []Object{
			{ID: "src", Kind: Data, Name: "raw feed"},
			{ID: "proc", Kind: Invocation, Name: "secret analytic", Lowest: "Protected", Protect: "surrogate"},
			{ID: "out", Kind: Data, Name: "derived table"},
			{ID: "report", Kind: Data, Name: "final report"},
		},
		Edges: []Edge{
			{From: "src", To: "proc", Label: "input-to"},
			{From: "proc", To: "out", Label: "generated"},
			{From: "out", To: "report", Label: "input-to"},
		},
		Surrogates: []SurrogateSpec{
			{ForID: "proc", ID: "proc'", Name: "an analytic", InfoScore: 0.4},
		},
	}
}

// doJSON runs one request and decodes the JSON answer into out (when
// non-nil), returning the response status.
func doJSON(t *testing.T, method, url string, headers map[string]string, body, out interface{}) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func ingestV2Fixture(t *testing.T, base string) BatchResponse {
	t.Helper()
	var br BatchResponse
	if st := doJSON(t, http.MethodPost, base+"/v2/batch", nil, v2Fixture(), &br); st != http.StatusOK {
		t.Fatalf("batch ingest status = %d", st)
	}
	return br
}

func TestV2BatchIngestAndCursor(t *testing.T) {
	srv, m := v2TestServer(t)
	br := ingestV2Fixture(t, srv.URL)
	if br.Revision != 8 || br.Objects != 4 || br.Edges != 3 || br.Surrogates != 1 {
		t.Errorf("batch response = %+v", br)
	}
	cur, err := DecodeCursor(br.Cursor)
	if err != nil {
		t.Fatalf("batch cursor: %v", err)
	}
	if cur.Epoch != m.Epoch() || cur.Rev != m.Revision() {
		t.Errorf("cursor = %+v, want epoch %q rev %d", cur, m.Epoch(), m.Revision())
	}
}

func TestV2BatchIsAtomic(t *testing.T) {
	srv, m := v2TestServer(t)
	bad := BatchRequest{
		Objects: []Object{{ID: "a", Kind: Data}},
		Edges:   []Edge{{From: "a", To: "ghost"}},
	}
	var apiErr APIError
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", nil, bad, &apiErr); st != http.StatusBadRequest {
		t.Fatalf("bad batch status = %d", st)
	}
	if apiErr.Code != CodeBadRequest || apiErr.Message == "" {
		t.Errorf("bad batch error = %+v", apiErr)
	}
	if m.Revision() != 0 || m.NumObjects() != 0 {
		t.Errorf("failed batch left partial state: rev=%d objects=%d", m.Revision(), m.NumObjects())
	}
}

func TestV2PrincipalResolution(t *testing.T) {
	srv, _ := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)
	lineageURL := srv.URL + "/v2/lineage?start=report"

	// Header viewer: Protected sees the original node.
	var resp LineageResponse
	if st := doJSON(t, http.MethodGet, lineageURL, map[string]string{HeaderViewer: "Protected"}, nil, &resp); st != http.StatusOK {
		t.Fatalf("header viewer status = %d", st)
	}
	if resp.Viewer != "Protected" {
		t.Errorf("viewer echoed as %q", resp.Viewer)
	}
	found := false
	for _, n := range resp.Nodes {
		if n.ID == "proc" {
			found = true
		}
	}
	if !found {
		t.Error("Protected viewer did not get the original node")
	}

	// No principal: Public, surrogate served instead.
	resp = LineageResponse{}
	if st := doJSON(t, http.MethodGet, lineageURL, nil, nil, &resp); st != http.StatusOK {
		t.Fatalf("no-principal status = %d", st)
	}
	for _, n := range resp.Nodes {
		if n.ID == "proc" {
			t.Error("Public viewer saw the protected node")
		}
	}

	// Unknown viewer: structured 400, never a Public fallback.
	var apiErr APIError
	if st := doJSON(t, http.MethodGet, lineageURL, map[string]string{HeaderViewer: "Bogus"}, nil, &apiErr); st != http.StatusBadRequest {
		t.Fatalf("unknown viewer status = %d", st)
	}
	if apiErr.Code != CodeUnknownViewer {
		t.Errorf("unknown viewer code = %q", apiErr.Code)
	}

	// The viewer is never a query parameter: one the handler would ignore
	// is rejected instead.
	apiErr = APIError{}
	if st := doJSON(t, http.MethodGet, lineageURL+"&viewer=Protected", nil, nil, &apiErr); st != http.StatusBadRequest {
		t.Fatalf("query-param viewer status = %d", st)
	}
	if apiErr.Code != CodeBadRequest {
		t.Errorf("query-param viewer code = %q", apiErr.Code)
	}
}

func TestV2Sessions(t *testing.T) {
	srv, _ := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)

	// Unknown viewer at session creation is a structured 400.
	var apiErr APIError
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/sessions", nil, SessionRequest{Viewer: "Nope"}, &apiErr); st != http.StatusBadRequest {
		t.Fatalf("bad session status = %d", st)
	}
	if apiErr.Code != CodeUnknownViewer {
		t.Errorf("bad session code = %q", apiErr.Code)
	}

	var sess SessionResponse
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/sessions", nil, SessionRequest{Viewer: "Protected"}, &sess); st != http.StatusCreated {
		t.Fatalf("session create status = %d", st)
	}
	if sess.Token == "" || sess.Viewer != "Protected" {
		t.Fatalf("session = %+v", sess)
	}

	// The session token resolves the principal.
	var resp LineageResponse
	st := doJSON(t, http.MethodGet, srv.URL+"/v2/lineage?start=report",
		map[string]string{HeaderSession: sess.Token}, nil, &resp)
	if st != http.StatusOK || resp.Viewer != "Protected" {
		t.Errorf("session lineage status=%d viewer=%q", st, resp.Viewer)
	}

	// Unknown token: 401. Conflicting header: 400.
	apiErr = APIError{}
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/lineage?start=report",
		map[string]string{HeaderSession: "feedfacefeedface"}, nil, &apiErr); st != http.StatusUnauthorized {
		t.Errorf("unknown session status = %d", st)
	}
	apiErr = APIError{}
	st = doJSON(t, http.MethodGet, srv.URL+"/v2/lineage?start=report",
		map[string]string{HeaderSession: sess.Token, HeaderViewer: "Public"}, nil, &apiErr)
	if st != http.StatusBadRequest || apiErr.Code != CodeViewerConflict {
		t.Errorf("conflicting viewer status=%d code=%q", st, apiErr.Code)
	}
}

func TestV2ObjectFetchIsPrincipalScoped(t *testing.T) {
	srv, _ := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)

	var apiErr APIError
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/objects/proc", nil, nil, &apiErr); st != http.StatusForbidden {
		t.Fatalf("public fetch of protected object status = %d", st)
	}
	if apiErr.Code != CodeForbidden {
		t.Errorf("code = %q", apiErr.Code)
	}

	var o Object
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/objects/proc",
		map[string]string{HeaderViewer: "Protected"}, nil, &o); st != http.StatusOK {
		t.Fatalf("privileged fetch status = %d", st)
	}
	if o.Name != "secret analytic" {
		t.Errorf("object = %+v", o)
	}

	apiErr = APIError{}
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/objects/ghost", nil, nil, &apiErr); st != http.StatusNotFound {
		t.Errorf("missing object status = %d", st)
	}
}

// readEvents drains one /v2/changes response body into events.
func readEvents(t *testing.T, rd io.Reader) []ChangeEvent {
	t.Helper()
	var out []ChangeEvent
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev ChangeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func getChanges(t *testing.T, base, cursor string, extra string) (int, []ChangeEvent, *APIError) {
	t.Helper()
	url := base + "/v2/changes?"
	if cursor != "" {
		url += "cursor=" + cursor + "&"
	}
	url += extra
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr APIError
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return resp.StatusCode, nil, &apiErr
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("changes content type = %q", ct)
	}
	return resp.StatusCode, readEvents(t, resp.Body), nil
}

func TestV2ChangesFromBeginningAndResume(t *testing.T) {
	srv, _ := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)

	st, evs, _ := getChanges(t, srv.URL, "", "")
	if st != http.StatusOK {
		t.Fatalf("changes status = %d", st)
	}
	if len(evs) != 9 { // 8 changes + sync
		t.Fatalf("got %d events, want 9", len(evs))
	}
	for i, ev := range evs[:8] {
		if ev.Type != "change" || ev.Rev != uint64(i+1) {
			t.Errorf("event %d = %+v", i, ev)
		}
	}
	if evs[0].Kind != "object" || evs[0].Object == nil {
		t.Errorf("first event = %+v", evs[0])
	}
	last := evs[8]
	if last.Type != "sync" || last.Rev != 8 {
		t.Errorf("final event = %+v", last)
	}

	// Resume from the cursor of the 5th change: only later changes flow.
	st, evs2, _ := getChanges(t, srv.URL, evs[4].Cursor, "")
	if st != http.StatusOK {
		t.Fatalf("resume status = %d", st)
	}
	if len(evs2) != 4 { // changes 6,7,8 + sync
		t.Fatalf("resumed %d events, want 4", len(evs2))
	}
	if evs2[0].Rev != 6 {
		t.Errorf("resume started at rev %d, want 6", evs2[0].Rev)
	}

	// limit stops the stream early, without a sync marker.
	st, evs3, _ := getChanges(t, srv.URL, "", "limit=3")
	if st != http.StatusOK || len(evs3) != 3 || evs3[2].Rev != 3 {
		t.Errorf("limited stream: status=%d events=%+v", st, evs3)
	}
}

func TestV2ChangesBadAndForeignCursors(t *testing.T) {
	srv, m := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)

	st, _, apiErr := getChanges(t, srv.URL, "garbage", "")
	if st != http.StatusBadRequest || apiErr.Code != CodeBadCursor {
		t.Errorf("garbage cursor: status=%d err=%+v", st, apiErr)
	}

	// A cursor from another epoch (another store life) is a typed 410
	// carrying the resync hint.
	foreign := Cursor{Epoch: "0123456789abcdef", Rev: 2}.Encode()
	st, _, apiErr = getChanges(t, srv.URL, foreign, "")
	if st != http.StatusGone || apiErr.Code != CodeTooFarBehind {
		t.Fatalf("foreign epoch: status=%d err=%+v", st, apiErr)
	}
	if apiErr.ResyncURL != "/v2/snapshot" {
		t.Errorf("resync URL = %q", apiErr.ResyncURL)
	}
	rc, err := DecodeCursor(apiErr.ResyncCursor)
	if err != nil || rc.Epoch != m.Epoch() || rc.Rev != m.Revision() {
		t.Errorf("resync cursor = %+v (err %v)", rc, err)
	}

	// A future revision in the right epoch also demands a resync.
	future := Cursor{Epoch: m.Epoch(), Rev: m.Revision() + 100}.Encode()
	if st, _, apiErr = getChanges(t, srv.URL, future, ""); st != http.StatusGone || apiErr.Code != CodeTooFarBehind {
		t.Errorf("future cursor: status=%d err=%+v", st, apiErr)
	}
}

func TestV2ChangesHorizonYields410(t *testing.T) {
	srv, m := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)
	// Shrink the retained window so revision 0 has aged out.
	m.SetChangeHorizon(1)

	st, _, apiErr := getChanges(t, srv.URL, "", "")
	if st != http.StatusGone {
		t.Fatalf("status = %d, want 410", st)
	}
	if apiErr.Code != CodeTooFarBehind || apiErr.ResyncCursor == "" {
		t.Errorf("error = %+v", apiErr)
	}
}

func TestV2ChangesLongPollDeliversNewWrites(t *testing.T) {
	srv, m := v2TestServer(t)
	br := ingestV2Fixture(t, srv.URL)

	type result struct {
		evs []ChangeEvent
		err error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v2/changes?cursor=" + br.Cursor + "&wait=5s&limit=1")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		done <- result{evs: readEvents(t, resp.Body)}
	}()

	// Give the handler a moment to catch up and park, then write.
	time.Sleep(100 * time.Millisecond)
	if err := m.PutObject(Object{ID: "late", Kind: Data, Name: "late arrival"}); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		var change *ChangeEvent
		for i := range r.evs {
			if r.evs[i].Type == "change" {
				change = &r.evs[i]
			}
		}
		if change == nil || change.Object == nil || change.Object.ID != "late" {
			t.Errorf("long-poll events = %+v, want the late object", r.evs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll did not deliver the write")
	}
}

func TestV2SnapshotResync(t *testing.T) {
	srv, m := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)

	var snap SnapshotResponse
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/snapshot", nil, nil, &snap); st != http.StatusOK {
		t.Fatalf("snapshot status = %d", st)
	}
	if snap.Revision != m.Revision() || snap.Epoch != m.Epoch() {
		t.Errorf("snapshot header = %+v", snap)
	}
	if len(snap.Objects) != 4 || len(snap.Edges) != 3 || len(snap.Surrogates) != 1 {
		t.Errorf("snapshot contents: %d objects %d edges %d surrogates",
			len(snap.Objects), len(snap.Edges), len(snap.Surrogates))
	}
	if len(snap.Lattice) == 0 {
		t.Error("snapshot missing the lattice")
	}
	// The snapshot's cursor resumes the feed with nothing missed.
	if err := m.PutObject(Object{ID: "after", Kind: Data}); err != nil {
		t.Fatal(err)
	}
	st, evs, _ := getChanges(t, srv.URL, snap.Cursor, "")
	if st != http.StatusOK {
		t.Fatalf("resume from snapshot cursor: %d", st)
	}
	if len(evs) != 2 || evs[0].Object == nil || evs[0].Object.ID != "after" {
		t.Errorf("resume events = %+v", evs)
	}
}

// TestV2ChangesAcrossLogRestart is the durability conformance case: a
// cursor taken before a LogBackend restart resumes after it with no gaps
// and no duplicates.
func TestV2ChangesAcrossLogRestart(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/plus.log"
	s1, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewServer(NewEngine(s1, privilege.TwoLevel())))
	br := ingestV2Fixture(t, srv1.URL)

	// Consume part of the feed pre-restart.
	st, evs, _ := getChanges(t, srv1.URL, "", "limit=5")
	if st != http.StatusOK || len(evs) != 5 {
		t.Fatalf("pre-restart: status=%d events=%d", st, len(evs))
	}
	resumeFrom := evs[4].Cursor
	srv1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	srv2 := httptest.NewServer(NewServer(NewEngine(s2, privilege.TwoLevel())))
	defer srv2.Close()

	st, evs2, _ := getChanges(t, srv2.URL, resumeFrom, "")
	if st != http.StatusOK {
		t.Fatalf("post-restart resume status = %d", st)
	}
	var revs []uint64
	for _, ev := range evs2 {
		if ev.Type == "change" {
			revs = append(revs, ev.Rev)
		}
	}
	if len(revs) != 3 {
		t.Fatalf("post-restart changes = %v, want revisions 6..8", revs)
	}
	for i, r := range revs {
		if r != uint64(6+i) {
			t.Errorf("gap or duplicate: revisions %v", revs)
			break
		}
	}
	// The batch cursor (issued pre-restart at the head) resumes to an
	// immediate sync.
	st, evs3, _ := getChanges(t, srv2.URL, br.Cursor, "")
	if st != http.StatusOK || len(evs3) != 1 || evs3[0].Type != "sync" {
		t.Errorf("head cursor resume: status=%d events=%+v", st, evs3)
	}
}

// TestV2ErrorBodiesAreStructured spot-checks that every failure mode
// carries a machine-readable code, the 405 of every route included.
func TestV2ErrorBodiesAreStructured(t *testing.T) {
	srv, _ := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)

	cases := []struct {
		method, path string
		body         interface{}
		wantStatus   int
		wantCode     string
	}{
		{http.MethodGet, "/v2/lineage?start=ghost", nil, http.StatusNotFound, CodeNotFound},
		{http.MethodGet, "/v2/lineage?start=report&mode=banana", nil, http.StatusBadRequest, CodeBadRequest},
		{http.MethodGet, "/v2/lineage", nil, http.StatusBadRequest, CodeBadRequest},
		{http.MethodPost, "/v2/batch", "not an object", http.StatusBadRequest, CodeBadRequest},
		{http.MethodGet, "/v2/sessions", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodGet, "/v2/batch", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodPost, "/v2/changes", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodPost, "/v2/snapshot", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodPost, "/v2/lineage", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodDelete, "/v2/objects/report", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodGet, "/v2/compact", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodPut, "/v2/opm", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodPost, "/v2/metrics", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodPost, "/v2/slowlog", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.MethodPost, "/v1/healthz", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		var apiErr APIError
		st := doJSON(t, tc.method, srv.URL+tc.path, nil, tc.body, &apiErr)
		if st != tc.wantStatus || apiErr.Code != tc.wantCode {
			t.Errorf("%s %s: status=%d code=%q, want %d %q",
				tc.method, tc.path, st, apiErr.Code, tc.wantStatus, tc.wantCode)
		}
		if apiErr.Message == "" {
			t.Errorf("%s %s: empty error message", tc.method, tc.path)
		}
	}
}

// TestV2ClosedBackend maps ErrClosed onto 503 + unavailable.
func TestV2ClosedBackend(t *testing.T) {
	srv, m := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)
	m.Close()

	var apiErr APIError
	if st := doJSON(t, http.MethodGet, srv.URL+"/v2/snapshot", nil, nil, &apiErr); st != http.StatusServiceUnavailable {
		t.Errorf("snapshot on closed backend = %d", st)
	}
	if apiErr.Code != CodeUnavailable {
		t.Errorf("code = %q", apiErr.Code)
	}
	if st, _, apiErr := getChanges(t, srv.URL, "", ""); st != http.StatusServiceUnavailable || apiErr.Code != CodeUnavailable {
		t.Errorf("changes on closed backend: status=%d err=%+v", st, apiErr)
	}
}

// TestV1Retired: the only /v1 route left is the principal-free healthz
// probe; every former v1 route answers 404 (plusql's tests cover the
// former /v1/query).
func TestV1Retired(t *testing.T) {
	srv, _ := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)

	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/v1/objects"},
		{http.MethodGet, "/v1/objects/report"},
		{http.MethodPost, "/v1/edges"},
		{http.MethodPost, "/v1/surrogates"},
		{http.MethodGet, "/v1/lineage?start=report"},
		{http.MethodGet, "/v1/stats"},
		{http.MethodGet, "/v1/opm"},
		{http.MethodPost, "/v1/opm"},
	} {
		if st := doJSON(t, tc.method, srv.URL+tc.path, nil, nil, nil); st != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", tc.method, tc.path, st)
		}
	}
	var h HealthzResponse
	if st := doJSON(t, http.MethodGet, srv.URL+"/v1/healthz", nil, nil, &h); st != http.StatusOK || h.Status != "ok" {
		t.Errorf("GET /v1/healthz = %d %+v, want 200 ok", st, h)
	}
}

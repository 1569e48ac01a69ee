package plus

import (
	"net/http"
	"strconv"
	"testing"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/privilege"
)

// surrogateIDObjects is the repro of a surrogate whose id names a stored
// object: x and a are Public, y is Protected behind a surrogate, and both
// y and x feed a.
func surrogateIDObjects() ([]Object, []Edge) {
	return []Object{
			{ID: "a", Kind: Data, Name: "product"},
			{ID: "x", Kind: Data, Name: "public input"},
			{ID: "y", Kind: Invocation, Name: "secret step", Lowest: "Protected", Protect: "surrogate"},
		}, []Edge{
			{From: "y", To: "a", Label: "generated"},
			{From: "x", To: "a", Label: "input-to"},
		}
}

// TestSurrogateNamingAnObjectIsRefused: a surrogate whose id names an
// object, stored or in the same batch, is refused at client ingest (a 400
// from /v2/batch, an error from PutSurrogate) but not by Apply, and a store
// that holds one anyway still answers soundly: the surrogate does not
// apply, so Public's lineage of a shows the original x, never y's
// surrogate merged into it.
func TestSurrogateNamingAnObjectIsRefused(t *testing.T) {
	srv, m := v2TestServer(t)
	objs, edges := surrogateIDObjects()
	clash := SurrogateSpec{ForID: "y", ID: "x", Name: "a step", InfoScore: 0.5}

	var apiErr APIError
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", nil,
		BatchRequest{Objects: objs, Edges: edges, Surrogates: []SurrogateSpec{clash}}, &apiErr); st != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Fatalf("batch with a surrogate named after an object in it: status %d %+v, want 400 bad_request", st, apiErr)
	}
	if m.NumObjects() != 0 {
		t.Fatalf("refused batch stored %d objects", m.NumObjects())
	}
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", nil, BatchRequest{Objects: objs, Edges: edges}, nil); st != http.StatusOK {
		t.Fatalf("batch status %d", st)
	}
	apiErr = APIError{}
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", nil,
		BatchRequest{Surrogates: []SurrogateSpec{clash}}, &apiErr); st != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Fatalf("surrogate named after a stored object: status %d %+v, want 400 bad_request", st, apiErr)
	}
	if err := m.PutSurrogate(clash); err == nil {
		t.Fatal("PutSurrogate accepted a surrogate named after a stored object")
	}

	// Apply stores it: a follower applies a primary's records through it,
	// and the primary may hold this one (the other write order, or a log
	// from before the check).
	if _, err := m.Apply(Batch{Surrogates: []SurrogateSpec{clash}}); err != nil {
		t.Fatalf("Apply refused a record a primary may hold: %v", err)
	}
	checkSoundWithClash(t, srv.URL, m)
}

// TestSurrogateNamedBeforeItsObject stores the clashing surrogate first,
// while no object is called x, and the object afterwards: the one order
// ingest cannot refuse.
func TestSurrogateNamedBeforeItsObject(t *testing.T) {
	srv, m := v2TestServer(t)
	objs, edges := surrogateIDObjects()
	first := BatchRequest{
		Objects:    []Object{objs[0], objs[2]},
		Edges:      edges[:1],
		Surrogates: []SurrogateSpec{{ForID: "y", ID: "x", Name: "a step", InfoScore: 0.5}},
	}
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", nil, first, nil); st != http.StatusOK {
		t.Fatalf("batch status %d", st)
	}
	status, resp, _ := lineage(t, srv.URL, "start=a", nil)
	if status != http.StatusOK || len(resp.Nodes) != 2 || resp.Nodes[1].ID != "x" || !resp.Nodes[1].Surrogate {
		t.Fatalf("before x exists, y's surrogate x stands in for y: %d %+v", status, resp.Nodes)
	}
	second := BatchRequest{Objects: []Object{objs[1]}, Edges: edges[1:]}
	if st := doJSON(t, http.MethodPost, srv.URL+"/v2/batch", nil, second, nil); st != http.StatusOK {
		t.Fatalf("batch status %d", st)
	}
	checkSoundWithClash(t, srv.URL, m)
}

// checkSoundWithClash asks for Public's lineage of a over HTTP and from the
// engine: x must be the original object with its own features and its
// own edge, y (whose one surrogate no longer applies) must be absent, and
// the account must pass VerifySound.
func checkSoundWithClash(t *testing.T, base string, m *MemBackend) {
	t.Helper()
	status, resp, apiErr := lineage(t, base, "start=a", nil)
	if status != http.StatusOK {
		t.Fatalf("lineage status %d: %+v", status, apiErr)
	}
	var ids []string
	for _, n := range resp.Nodes {
		ids = append(ids, n.ID)
		if n.ID == "x" && (n.Surrogate || n.Features["name"] != "public input") {
			t.Errorf("x served as y's surrogate: %+v", n)
		}
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "x" {
		t.Errorf("nodes %v, want [a x]", ids)
	}
	if len(resp.Edges) != 1 || resp.Edges[0] != (LineageEdge{From: "x", To: "a", Label: "input-to"}) {
		t.Errorf("edges %+v, want only x->a", resp.Edges)
	}
	res, err := NewEngine(m, privilege.TwoLevel()).Lineage(Request{Start: "a", Direction: graph.Backward, Viewer: privilege.Public})
	if err != nil {
		t.Fatal(err)
	}
	if err := account.VerifySound(res.Spec, res.Account); err != nil {
		t.Errorf("VerifySound: %v", err)
	}
}

// TestLineageBodyHeaders: the appended body goes out with its length.
func TestLineageBodyHeaders(t *testing.T) {
	srv, _ := v2TestServer(t)
	ingestV2Fixture(t, srv.URL)
	resp, err := http.Get(srv.URL + "/v2/lineage?start=report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	if n, err := strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64); err != nil || n <= 0 || n != resp.ContentLength {
		t.Errorf("Content-Length %q (parsed %d, %v)", resp.Header.Get("Content-Length"), n, err)
	}
}

package plus

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/privilege"
)

func opmFixture(t *testing.T) *LogBackend {
	t.Helper()
	s, _ := openTemp(t)
	objs := []Object{
		{ID: "raw", Kind: Data, Name: "raw data"},
		{ID: "clean", Kind: Invocation, Name: "cleaning step", Lowest: "Protected", Protect: "surrogate"},
		{ID: "table", Kind: Data, Name: "clean table"},
	}
	for _, o := range objs {
		if err := s.PutObject(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{
		{From: "raw", To: "clean", Label: "input"},
		{From: "clean", To: "table", Label: "output"},
	} {
		if err := s.PutEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestOPMExportShape(t *testing.T) {
	s := opmFixture(t)
	var buf bytes.Buffer
	if err := ExportOPM(s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"artifacts"`, `"processes"`, `"used"`, `"wasGeneratedBy"`,
		`"id": "raw"`, `"id": "clean"`,
		`"x-plus"`, `"lowest": "Protected"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}
	// raw -> clean is a "used" arc (process consumed artifact).
	if !strings.Contains(out, `"effect": "clean"`) {
		t.Error("used arc direction wrong")
	}
}

func TestOPMRoundTrip(t *testing.T) {
	src := opmFixture(t)
	var buf bytes.Buffer
	if err := ExportOPM(src, &buf); err != nil {
		t.Fatal(err)
	}

	dst, _ := openTemp(t)
	if err := ImportOPM(dst, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.NumObjects() != src.NumObjects() || dst.NumEdges() != src.NumEdges() {
		t.Fatalf("round trip size: %d/%d vs %d/%d",
			dst.NumObjects(), dst.NumEdges(), src.NumObjects(), src.NumEdges())
	}
	o, err := dst.GetObject("clean")
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != Invocation || o.Lowest != "Protected" || o.Protect != "surrogate" {
		t.Errorf("sensitivity lost across OPM: %+v", o)
	}
	if got := dst.EdgesFrom("raw"); len(got) != 1 || got[0].To != "clean" || got[0].Label != "input" {
		t.Errorf("edge lost or relabelled: %v", got)
	}
}

func TestOPMImportForeignDocument(t *testing.T) {
	// A document from another system: no x-plus blocks, default roles.
	doc := `{
	  "artifacts": [{"id":"a1","value":"input file"},{"id":"a2","value":"result"}],
	  "processes": [{"id":"p1","value":"transform"}],
	  "used": [{"effect":"p1","cause":"a1"}],
	  "wasGeneratedBy": [{"effect":"a2","cause":"p1"}]
	}`
	s, _ := openTemp(t)
	if err := ImportOPM(s, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if s.NumObjects() != 3 || s.NumEdges() != 2 {
		t.Errorf("import size: %d objects %d edges", s.NumObjects(), s.NumEdges())
	}
	o, err := s.GetObject("a1")
	if err != nil || o.Lowest != "" {
		t.Errorf("foreign artifact should be public: %+v %v", o, err)
	}
	if got := s.EdgesFrom("p1"); len(got) != 1 || got[0].Label != "wasGeneratedBy" {
		t.Errorf("default role missing: %v", got)
	}
}

func TestOPMImportErrors(t *testing.T) {
	s, _ := openTemp(t)
	if err := ImportOPM(s, strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if err := ImportOPM(s, strings.NewReader(`{"used":[{"effect":"p","cause":"a"}]}`)); err == nil {
		t.Error("dependency on unknown entities accepted")
	}
}

// TestOPMImportIsAtomic: a document with one dangling dependency is
// refused whole, imported directly and over POST /v2/opm alike — no
// entity or good dependency of it lands, and the revision stays put.
func TestOPMImportIsAtomic(t *testing.T) {
	const doc = `{
	  "artifacts": [{"id":"a1","value":"input"}],
	  "processes": [{"id":"p1","value":"step"}],
	  "used": [{"effect":"p1","cause":"a1"},{"effect":"p1","cause":"ghost"}]
	}`
	seeded := func(t *testing.T) Backend {
		m := NewMemBackend(0)
		t.Cleanup(func() { m.Close() })
		if err := m.PutObject(Object{ID: "seed", Kind: Data, Name: "seed"}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	unchanged := func(t *testing.T, b Backend) {
		t.Helper()
		if b.NumObjects() != 1 || b.NumEdges() != 0 || b.Revision() != 1 {
			t.Errorf("after a refused import: %d objects, %d edges, revision %d; want 1, 0, 1",
				b.NumObjects(), b.NumEdges(), b.Revision())
		}
	}

	direct := seeded(t)
	if err := ImportOPM(direct, strings.NewReader(doc)); err == nil {
		t.Error("dangling dependency accepted")
	}
	unchanged(t, direct)

	served := seeded(t)
	srv := httptest.NewServer(NewServer(NewEngine(served, privilege.TwoLevel())))
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/v2/opm", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body APIError
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if resp.StatusCode != http.StatusBadRequest || body.Code != CodeBadRequest {
		t.Errorf("POST /v2/opm = %d %q, want 400 %q", resp.StatusCode, body.Code, CodeBadRequest)
	}
	unchanged(t, served)
}

func TestOPMExportOnClosedStore(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportOPM(s, &buf); err == nil {
		t.Error("export on closed store accepted")
	}
}

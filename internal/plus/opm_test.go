package plus

import (
	"bytes"
	"strings"
	"testing"
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
	if err := s.ExportOPM(&buf); err != nil {
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
	if err := src.ExportOPM(&buf); err != nil {
		t.Fatal(err)
	}

	dst, _ := openTemp(t)
	if err := dst.ImportOPM(bytes.NewReader(buf.Bytes())); err != nil {
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
	if err := s.ImportOPM(strings.NewReader(doc)); err != nil {
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
	if err := s.ImportOPM(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if err := s.ImportOPM(strings.NewReader(`{"used":[{"effect":"p","cause":"a"}]}`)); err == nil {
		t.Error("dependency on unknown entities accepted")
	}
}

func TestOPMExportOnClosedStore(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.ExportOPM(&buf); err == nil {
		t.Error("export on closed store accepted")
	}
}

package main

import (
	"net/http/httptest"

	"bytes"
	"os"
	"repro/internal/plus"
	"repro/internal/privilege"
	"strings"
	"testing"
)

func writeSpec(t *testing.T) string {
	t.Helper()
	raw := `{
	  "lattice": [["High-1","Low-2"], ["High-2","Low-2"], ["Low-2","Public"]],
	  "nodes": [
	    {"id":"pub"},
	    {"id":"f", "lowest":"High-1"},
	    {"id":"g", "lowest":"High-2"}
	  ],
	  "edges": [
	    {"from":"pub","to":"f"},
	    {"from":"pub","to":"g"},
	    {"from":"f","to":"g","protectAt":"High-1","protectMode":"hide"}
	  ]
	}`
	path := t.TempDir() + "/spec.json"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAudit(t *testing.T) {
	path := writeSpec(t)
	var out bytes.Buffer
	err := run([]string{"-spec", path, "-viewers", "High-1,High-2", "-edges", "f->g"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"composition audit over 2 accounts", "edge f->g", "degradation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunAuditAllEdges(t *testing.T) {
	path := writeSpec(t)
	var out bytes.Buffer
	if err := run([]string{"-spec", path, "-viewers", "High-1, High-2"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "edge ") != 3 {
		t.Errorf("expected all 3 edges scored:\n%s", out.String())
	}
}

func TestRunAuditErrors(t *testing.T) {
	path := writeSpec(t)
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing flags accepted")
	}
	if err := run([]string{"-spec", path, "-viewers", "High-1"}, &out); err == nil {
		t.Error("single viewer accepted")
	}
	if err := run([]string{"-spec", path, "-viewers", "High-1,High-2", "-edges", "bogus"}, &out); err == nil {
		t.Error("malformed edge accepted")
	}
	if err := run([]string{"-spec", path, "-viewers", "High-1,High-2", "-edges", "f->zz"}, &out); err == nil {
		t.Error("unknown edge accepted")
	}
	if err := run([]string{"-spec", path + ".missing", "-viewers", "High-1,High-2"}, &out); err == nil {
		t.Error("missing spec accepted")
	}
	if err := run([]string{"-spec", path, "-viewers", "Bogus,High-2"}, &out); err == nil {
		t.Error("unknown viewer accepted")
	}
}

func TestParseEdges(t *testing.T) {
	edges, err := parseEdges("a->b, c->d")
	if err != nil || len(edges) != 2 || edges[1].From != "c" {
		t.Errorf("parseEdges = %v, %v", edges, err)
	}
	if got, err := parseEdges(""); got != nil || err != nil {
		t.Errorf("empty = %v, %v", got, err)
	}
	if _, err := parseEdges("->b"); err == nil {
		t.Error("empty endpoint accepted")
	}
}

// TestRunAuditRemote pulls the graph from a live server through the v2
// SDK and audits account composition exactly like the spec-file path.
func TestRunAuditRemote(t *testing.T) {
	backend := plus.NewMemBackend(0)
	t.Cleanup(func() { backend.Close() })
	srv := httptest.NewServer(plus.NewServer(plus.NewEngine(backend, privilege.FigureOneLattice())))
	t.Cleanup(srv.Close)
	_, err := backend.Apply(plus.Batch{
		Objects: []plus.Object{
			{ID: "pub", Kind: plus.Data, Name: "public record"},
			{ID: "f", Kind: plus.Data, Name: "informant", Lowest: "High-1"},
			{ID: "g", Kind: plus.Data, Name: "suspect", Lowest: "High-2"},
		},
		Edges: []plus.Edge{
			{From: "pub", To: "f"},
			{From: "pub", To: "g"},
			{From: "f", To: "g", Lowest: "High-1", Marking: "hide"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-server", srv.URL, "-viewers", "High-1,High-2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "f->g") {
		t.Errorf("audit report missing the sensitive edge:\n%s", out.String())
	}

	if err := run([]string{"-server", srv.URL, "-spec", "x.json", "-viewers", "High-1,High-2"}, &out); err == nil {
		t.Error("-spec with -server accepted")
	}
	if err := run([]string{"-viewers", "High-1,High-2"}, &out); err == nil {
		t.Error("neither -spec nor -server accepted")
	}
}

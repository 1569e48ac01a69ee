package main

import (
	"net/http/httptest"

	"bytes"
	"encoding/json"
	"os"
	"repro/internal/plus"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/privilege"
)

func fixtureSpec(t *testing.T) *core.SpecFile {
	t.Helper()
	raw := `{
	  "lattice": [["High-1","Low-2"], ["High-2","Low-2"], ["Low-2","Public"]],
	  "nodes": [
	    {"id":"c", "features":{"name":"associate"}},
	    {"id":"f", "lowest":"High-1", "protect":"surrogate",
	     "features":{"name":"gang affiliation"}},
	    {"id":"g", "features":{"name":"suspect"}}
	  ],
	  "edges": [
	    {"from":"c","to":"f","label":"involved-in"},
	    {"from":"f","to":"g","label":"involves"}
	  ],
	  "surrogates": [
	    {"for":"f","id":"f'","lowest":"Low-2","infoScore":0.5,
	     "features":{"name":"a trusted source"}}
	  ]
	}`
	var sf core.SpecFile
	if err := json.Unmarshal([]byte(raw), &sf); err != nil {
		t.Fatal(err)
	}
	return &sf
}

func TestBuildSpecAndProtect(t *testing.T) {
	spec, err := fixtureSpec(t).BuildSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Protect(spec, "High-2", core.Surrogate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Account.Graph.HasNode("f") {
		t.Error("sensitive node leaked")
	}
	if !res.Account.Graph.HasEdge("c", "g") {
		t.Errorf("expected surrogate edge c->g: %v", res.Account.Graph.Edges())
	}
	// f has a surrogate but its role is hidden, so f' floats (Figure 2d).
	if !res.Account.Graph.HasNode("f'") {
		t.Errorf("surrogate node missing: %v", res.Account.Graph.Nodes())
	}
}

func TestBuildSpecEdgeProtection(t *testing.T) {
	sf := fixtureSpec(t)
	sf.Nodes[1].Protect = "" // keep f visible-incidence
	sf.Edges[0].ProtectAt = "High-1"
	sf.Edges[0].ProtectMode = "hide"
	spec, err := sf.BuildSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Protect(spec, "High-2", core.Surrogate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Account.Graph.HasEdge("c", "f'") {
		t.Error("hidden edge leaked onto the surrogate")
	}
}

func TestBuildSpecErrors(t *testing.T) {
	sf := fixtureSpec(t)
	sf.Nodes[1].Protect = "banana"
	if _, err := sf.BuildSpec(); err == nil {
		t.Error("bad node protect mode accepted")
	}

	sf = fixtureSpec(t)
	sf.Edges[0].ProtectAt = "Low-2"
	sf.Edges[0].ProtectMode = "banana"
	if _, err := sf.BuildSpec(); err == nil {
		t.Error("bad edge protect mode accepted")
	}

	sf = fixtureSpec(t)
	sf.Lattice = append(sf.Lattice, [2]string{"Low-2", "High-1"}) // cycle
	if _, err := sf.BuildSpec(); err == nil {
		t.Error("cyclic lattice accepted")
	}

	sf = fixtureSpec(t)
	sf.Edges = append(sf.Edges, core.SpecFileEdge{From: "c", To: "nope"})
	if _, err := sf.BuildSpec(); err == nil {
		t.Error("dangling edge accepted")
	}
}

func writeFixtureFile(t *testing.T) string {
	t.Helper()
	sf := fixtureSpec(t)
	data, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/spec.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFormats(t *testing.T) {
	path := writeFixtureFile(t)
	cases := []struct {
		format string
		want   []string
	}{
		{"table", []string{"protected account for viewer High-2", "[surrogate]", "path utility"}},
		{"json", []string{`"viewer": "High-2"`, `"pathUtility"`, `"graphOpacity"`}},
		{"dot", []string{`digraph "protected"`, `style="dashed"`}},
		{"report", []string{"utility:", "opacity="}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run([]string{"-spec", path, "-viewer", "High-2", "-format", c.format}, &out)
		if err != nil {
			t.Fatalf("%s: %v", c.format, err)
		}
		for _, want := range c.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s output missing %q:\n%s", c.format, want, out.String())
			}
		}
	}
}

func TestRunHighWaterSetViewer(t *testing.T) {
	path := writeFixtureFile(t)
	var out bytes.Buffer
	if err := run([]string{"-spec", path, "-viewer", "High-1, High-2", "-format", "table"}, &out); err != nil {
		t.Fatal(err)
	}
	// A viewer holding High-1 sees f itself.
	if !strings.Contains(out.String(), "node f\n") {
		t.Errorf("HW-set viewer should see f:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeFixtureFile(t)
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -spec accepted")
	}
	if err := run([]string{"-spec", path + ".missing"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-spec", path, "-mode", "banana"}, &out); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-spec", path, "-format", "banana"}, &out); err == nil {
		t.Error("bad format accepted")
	}
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", bad}, &out); err == nil {
		t.Error("bad JSON accepted")
	}
	if err := run([]string{"-spec", path, "-viewer", "Bogus"}, &out); err == nil {
		t.Error("hidden-content soundness failure or unknown predicate should error")
	}
}

func TestBuildSpecDefaultSurrogateLowest(t *testing.T) {
	sf := fixtureSpec(t)
	sf.Surrogates[0].Lowest = "" // should default to Public
	spec, err := sf.BuildSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Protect(spec, privilege.Public, core.Surrogate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Account.Graph.HasNode("f'") {
		t.Error("public-default surrogate not visible to Public")
	}
}

// remoteFixtureServer serves the Figure 1 graph from a live plusd-style
// server so the -server mode can be driven end to end through the SDK.
func remoteFixtureServer(t *testing.T) string {
	t.Helper()
	backend := plus.NewMemBackend(0)
	t.Cleanup(func() { backend.Close() })
	srv := httptest.NewServer(plus.NewServer(plus.NewEngine(backend, privilege.FigureOneLattice())))
	t.Cleanup(srv.Close)
	_, err := backend.Apply(plus.Batch{
		Objects: []plus.Object{
			{ID: "c", Kind: plus.Data, Name: "associate"},
			{ID: "f", Kind: plus.Data, Name: "gang affiliation", Lowest: "High-1", Protect: "surrogate"},
			{ID: "g", Kind: plus.Data, Name: "suspect"},
		},
		Edges: []plus.Edge{
			{From: "c", To: "f", Label: "involved-in"},
			{From: "f", To: "g", Label: "involves"},
		},
		Surrogates: []plus.SurrogateSpec{
			{ForID: "f", ID: "f'", Name: "a trusted source", Lowest: "Low-2", InfoScore: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.URL
}

// TestRunProtectRemote pulls the graph from a live server through the v2
// SDK and expects the same protection pipeline as the spec-file path.
func TestRunProtectRemote(t *testing.T) {
	url := remoteFixtureServer(t)
	var out bytes.Buffer
	if err := run([]string{"-server", url, "-viewer", "High-2", "-format", "table"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "node f'") {
		t.Errorf("surrogate node missing:\n%s", s)
	}
	if strings.Contains(s, "node f\n") {
		t.Errorf("sensitive node leaked:\n%s", s)
	}
	if !strings.Contains(s, "edge c -> g") {
		t.Errorf("surrogate edge missing:\n%s", s)
	}

	// Spec and server are mutually exclusive; one of them is required.
	if err := run([]string{"-server", url, "-spec", "x.json"}, &out); err == nil {
		t.Error("-spec with -server accepted")
	}
	if err := run([]string{"-viewer", "High-2"}, &out); err == nil {
		t.Error("neither -spec nor -server rejected... accepted")
	}
	// A dead server is a transport error, not a silent empty graph.
	if err := run([]string{"-server", "http://127.0.0.1:1", "-viewer", "High-2"}, &out); err == nil {
		t.Error("unreachable server accepted")
	}
}

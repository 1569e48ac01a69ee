package graph

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustEdge(t *testing.T, g *Graph, from, to NodeID) {
	t.Helper()
	if err := g.AddEdge(Edge{From: from, To: to}); err != nil {
		t.Fatalf("AddEdge(%s->%s): %v", from, to, err)
	}
}

// chain builds a->b->c->d->e.
func chain(t *testing.T) *Graph {
	t.Helper()
	g := New()
	ids := []NodeID{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		g.AddNodeID(id)
	}
	for i := 0; i+1 < len(ids); i++ {
		mustEdge(t, g, ids[i], ids[i+1])
	}
	return g
}

func TestAddNodeReplacesAndCopiesFeatures(t *testing.T) {
	g := New()
	feats := Features{"name": "Joe"}
	g.AddNode(Node{ID: "n", Features: feats})
	feats["name"] = "mutated"
	n, ok := g.NodeByID("n")
	if !ok {
		t.Fatal("node missing")
	}
	if n.Features["name"] != "Joe" {
		t.Errorf("feature mutated through caller map: got %q", n.Features["name"])
	}
	g.AddNode(Node{ID: "n", Features: Features{"name": "Jane"}})
	n, _ = g.NodeByID("n")
	if n.Features["name"] != "Jane" {
		t.Errorf("AddNode did not replace: got %q", n.Features["name"])
	}
	if g.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	g.AddNodeID("a")
	g.AddNodeID("b")
	if err := g.AddEdge(Edge{From: "a", To: "a"}); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(Edge{From: "a", To: "zzz"}); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := g.AddEdge(Edge{From: "zzz", To: "a"}); err == nil {
		t.Error("edge from unknown node accepted")
	}
	mustEdge(t, g, "a", "b")
	if err := g.AddEdge(Edge{From: "a", To: "b"}); err == nil {
		t.Error("duplicate edge accepted")
	}
	// Reverse direction is a distinct edge.
	mustEdge(t, g, "b", "a")
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestRemoveEdgeAndNode(t *testing.T) {
	g := chain(t)
	if !g.RemoveEdge("a", "b") {
		t.Fatal("RemoveEdge a->b returned false")
	}
	if g.RemoveEdge("a", "b") {
		t.Error("second RemoveEdge returned true")
	}
	if g.HasEdge("a", "b") {
		t.Error("edge still present after removal")
	}
	if g.OutDegree("a") != 0 || g.InDegree("b") != 0 {
		t.Error("adjacency not updated after edge removal")
	}

	if !g.RemoveNode("c") {
		t.Fatal("RemoveNode c returned false")
	}
	if g.HasNode("c") || g.HasEdge("b", "c") || g.HasEdge("c", "d") {
		t.Error("node removal left dangling state")
	}
	if g.RemoveNode("c") {
		t.Error("second RemoveNode returned true")
	}
	if g.NumNodes() != 4 || g.NumEdges() != 1 {
		t.Errorf("after removals: nodes=%d edges=%d, want 4,1", g.NumNodes(), g.NumEdges())
	}
}

func TestAdjacencyAccessors(t *testing.T) {
	g := New()
	for _, id := range []NodeID{"x", "a", "b", "c"} {
		g.AddNodeID(id)
	}
	mustEdge(t, g, "x", "b")
	mustEdge(t, g, "x", "a")
	mustEdge(t, g, "c", "x")

	if got := g.Successors("x"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Successors(x) = %v, want [a b]", got)
	}
	if got := g.Predecessors("x"); len(got) != 1 || got[0] != "c" {
		t.Errorf("Predecessors(x) = %v, want [c]", got)
	}
	if got := g.Neighbors("x"); len(got) != 3 {
		t.Errorf("Neighbors(x) = %v, want 3 nodes", got)
	}
	if g.Degree("x") != 3 || g.OutDegree("x") != 2 || g.InDegree("x") != 1 {
		t.Errorf("degrees wrong: %d/%d/%d", g.Degree("x"), g.OutDegree("x"), g.InDegree("x"))
	}
}

func TestReachableDirections(t *testing.T) {
	g := chain(t)
	fwd := g.Reachable("c", Forward)
	if len(fwd) != 2 || !fwd["d"] || !fwd["e"] {
		t.Errorf("forward from c = %v", fwd)
	}
	back := g.Reachable("c", Backward)
	if len(back) != 2 || !back["a"] || !back["b"] {
		t.Errorf("backward from c = %v", back)
	}
	und := g.Reachable("c", Undirected)
	if len(und) != 4 {
		t.Errorf("undirected from c = %v, want 4 nodes", und)
	}
	if g.Reachable("missing", Forward) != nil {
		t.Error("Reachable on missing node should be nil")
	}
}

func TestWeakComponents(t *testing.T) {
	g := chain(t)
	g.AddNodeID("z1")
	g.AddNodeID("z2")
	mustEdge(t, g, "z1", "z2")
	comps := g.WeakComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 5 || len(comps[1]) != 2 {
		t.Errorf("component sizes = %d,%d want 5,2", len(comps[0]), len(comps[1]))
	}
	if g.IsWeaklyConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestShortestPath(t *testing.T) {
	g := chain(t)
	// Add a shortcut a->c; shortest a->e is then a,c,d,e.
	mustEdge(t, g, "a", "c")
	p := g.ShortestPath("a", "e")
	want := []NodeID{"a", "c", "d", "e"}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if p := g.ShortestPath("e", "a"); p != nil {
		t.Errorf("path e->a = %v, want nil", p)
	}
	if p := g.ShortestPath("a", "a"); len(p) != 1 || p[0] != "a" {
		t.Errorf("path a->a = %v, want [a]", p)
	}
}

func TestDistances(t *testing.T) {
	g := chain(t)
	d := g.Distances("a", Forward)
	for i, id := range []NodeID{"a", "b", "c", "d", "e"} {
		if d[id] != i {
			t.Errorf("dist(a,%s) = %d, want %d", id, d[id], i)
		}
	}
	if len(g.Distances("e", Forward)) != 1 {
		t.Error("e should reach only itself forward")
	}
}

func TestTopoSortAndDAG(t *testing.T) {
	g := chain(t)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("chain reported cyclic")
	}
	pos := map[NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("topo order violates edge %s", e.ID())
		}
	}
	if !g.IsDAG() {
		t.Error("chain not a DAG")
	}
	mustEdge(t, g, "e", "a") // close the cycle
	if _, ok := g.TopoSort(); ok {
		t.Error("cyclic graph topo-sorted")
	}
	if g.IsDAG() {
		t.Error("cyclic graph reported acyclic")
	}
}

func TestHasPath(t *testing.T) {
	g := chain(t)
	if !g.HasPath("a", "e") {
		t.Error("a should reach e")
	}
	if g.HasPath("e", "a") {
		t.Error("e should not reach a")
	}
	if !g.HasPath("c", "c") {
		t.Error("node should reach itself")
	}
	if g.HasPath("zz", "zz") {
		t.Error("missing node reaches itself")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := chain(t)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.RemoveNode("c")
	if g.NumNodes() != 5 {
		t.Error("mutating clone affected original")
	}
	if g.Equal(c) {
		t.Error("Equal true after divergence")
	}
}

func TestEqualComparesFeaturesAndLabels(t *testing.T) {
	a, b := New(), New()
	a.AddNode(Node{ID: "n", Features: Features{"k": "v"}})
	b.AddNode(Node{ID: "n", Features: Features{"k": "other"}})
	if a.Equal(b) {
		t.Error("feature mismatch not detected")
	}
	b.AddNode(Node{ID: "n", Features: Features{"k": "v"}})
	a.AddNodeID("m")
	b.AddNodeID("m")
	if err := a.AddEdge(Edge{From: "n", To: "m", Label: "input-to"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(Edge{From: "n", To: "m", Label: "derived"}); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Error("label mismatch not detected")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := chain(t)
	g.AddNode(Node{ID: "f", Features: Features{"name": "Joe", "phone": "123"}})
	mustEdge(t, g, "e", "f")
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(&back) {
		t.Error("round trip changed the graph")
	}
}

func TestJSONRejectsBadInput(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"nodes":[{"id":""}]}`), &g); err == nil {
		t.Error("empty node id accepted")
	}
	if err := json.Unmarshal([]byte(`{"nodes":[{"id":"a"}],"edges":[{"from":"a","to":"zz"}]}`), &g); err == nil {
		t.Error("dangling edge accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &g); err == nil {
		t.Error("garbage accepted")
	}
}

// TestJSONRejectsDuplicateNodeAndKeepsReceiver: a repeated node id is an
// error, not a silent merge, and a decode that fails part-way leaves the
// receiver as it was.
func TestJSONRejectsDuplicateNodeAndKeepsReceiver(t *testing.T) {
	for name, in := range map[string]string{
		"duplicate id":     `{"nodes":[{"id":"a","features":{"name":"x"}},{"id":"a","features":{"name":"y"}}],"edges":[]}`,
		"unknown endpoint": `{"nodes":[{"id":"p"},{"id":"q"}],"edges":[{"from":"p","to":"q"},{"from":"q","to":"zzz"}]}`,
	} {
		g := chain(t)
		want := g.Clone()
		if err := json.Unmarshal([]byte(in), g); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !g.Equal(want) {
			t.Errorf("%s: failed decode changed the receiver to %v", name, g.Nodes())
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := New()
	g.AddNode(Node{ID: "a", Features: Features{"label": "Alpha"}})
	g.AddNodeID("b")
	mustEdge(t, g, "a", "b")
	dot := g.DOT("test")
	for _, want := range []string{`digraph "test"`, `"a" [label="Alpha"]`, `"a" -> "b"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q in:\n%s", want, dot)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := chain(t)
	g.AddNodeID("lone")
	s := g.ComputeStats()
	if s.Nodes != 6 || s.Edges != 4 {
		t.Errorf("stats size wrong: %+v", s)
	}
	if s.WeakComponents != 2 || s.IsolatedNodes != 1 || !s.IsDAG {
		t.Errorf("stats structure wrong: %+v", s)
	}
	// Chain reachability: 4+3+2+1+0 for a..e plus 0 for lone = 10/6.
	if got, want := s.MeanReachable, 10.0/6.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("MeanReachable = %v, want %v", got, want)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestFeaturesHelpers(t *testing.T) {
	f := Features{"b": "2", "a": "1"}
	if got := f.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Keys = %v", got)
	}
	c := f.Clone()
	c["a"] = "mut"
	if f["a"] != "1" {
		t.Error("Clone shares storage")
	}
	if !f.Equal(Features{"a": "1", "b": "2"}) {
		t.Error("Equal false for equal maps")
	}
	if f.Equal(Features{"a": "1"}) {
		t.Error("Equal true for different sizes")
	}
	var nilF Features
	if nilF.Clone() != nil {
		t.Error("nil clone should be nil")
	}
	if !nilF.Equal(Features{}) {
		t.Error("nil and empty should be Equal")
	}
}

func TestEdgeIDHelpers(t *testing.T) {
	e := EdgeID{From: "a", To: "b"}
	if e.String() != "a->b" {
		t.Errorf("String = %q", e.String())
	}
	if r := e.Reverse(); r.From != "b" || r.To != "a" {
		t.Errorf("Reverse = %v", r)
	}
}

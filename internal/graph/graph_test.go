package graph

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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

// diamond builds a->b, a->c, b->d, c->d, a->d (a redundant shortcut).
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		g.AddNodeID(id)
	}
	for _, e := range []EdgeID{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"a", "d"}} {
		mustEdge(t, g, e.From, e.To)
	}
	return g
}

// reduce returns a copy of g without its redundant edges: its transitive
// reduction when g is a DAG.
func reduce(g *Graph) *Graph {
	red := g.Clone()
	for _, e := range g.RedundantEdges() {
		red.RemoveEdge(e.From, e.To)
	}
	return red
}

// TestAddNodeReplacesAndOwnsFeatures pins the ownership contract of Node:
// AddNode keeps the caller's feature map itself, Clone shares it, and
// replacing a node hands over a new map without writing into the old one.
func TestAddNodeReplacesAndOwnsFeatures(t *testing.T) {
	same := func(a, b Features) bool {
		return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
	}
	g := New()
	feats := Features{"name": "Joe"}
	g.AddNode(Node{ID: "n", Features: feats})
	n, ok := g.NodeByID("n")
	if !ok {
		t.Fatal("node missing")
	}
	if !same(n.Features, feats) {
		t.Error("AddNode copied the feature map it was handed")
	}
	c := g.Clone()
	if cn, _ := c.NodeByID("n"); !same(cn.Features, feats) {
		t.Error("Clone copied a feature map")
	}
	g.AddNode(Node{ID: "n", Features: Features{"name": "Jane"}})
	n, _ = g.NodeByID("n")
	if n.Features["name"] != "Jane" {
		t.Errorf("AddNode did not replace: got %q", n.Features["name"])
	}
	if feats["name"] != "Joe" || len(feats) != 1 {
		t.Errorf("replacing the node wrote into its old map: %v", feats)
	}
	if cn, _ := c.NodeByID("n"); cn.Features["name"] != "Joe" {
		t.Errorf("replacing a node changed the clone's: got %q", cn.Features["name"])
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
	if g.OutDegree("a") != 0 || len(g.Predecessors("b")) != 0 {
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
	if g.Degree("x") != 3 || g.OutDegree("x") != 2 {
		t.Errorf("degrees wrong: %d/%d", g.Degree("x"), g.OutDegree("x"))
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

func TestFeaturesHelpers(t *testing.T) {
	f := Features{"b": "2", "a": "1"}
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
}

func TestAncestorsDescendants(t *testing.T) {
	g := diamond(t)
	if got := g.Reachable("d", Backward); len(got) != 3 {
		t.Errorf("ancestors of d = %v", got)
	}
	if got := g.Reachable("a", Forward); len(got) != 3 {
		t.Errorf("descendants of a = %v", got)
	}
	if got := g.Reachable("a", Backward); len(got) != 0 {
		t.Errorf("ancestors of a = %v", got)
	}
	if got := g.ConnectedPairsAll()["b"]; got != 2 {
		t.Errorf("connected pairs of b = %d, want 2 (a and d)", got)
	}
}

func TestRedundantEdgesAndReduction(t *testing.T) {
	g := diamond(t)
	red := g.RedundantEdges()
	if len(red) != 1 || red[0] != (EdgeID{From: "a", To: "d"}) {
		t.Errorf("RedundantEdges = %v, want [a->d]", red)
	}
	tr := reduce(g)
	if tr.HasEdge("a", "d") || tr.NumEdges() != 4 {
		t.Errorf("reduction edges = %v, want the diamond without a->d", tr.Edges())
	}
	for _, u := range g.Nodes() {
		for _, v := range g.Nodes() {
			if g.HasPath(u, v) != tr.HasPath(u, v) {
				t.Errorf("reduction changed reachability %s->%s", u, v)
			}
		}
	}
}

// Property: removing the redundant edges of a random DAG preserves
// reachability and leaves no edge redundant.
func TestTransitiveReductionProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		g := New()
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(string(rune('a' + i)))
			g.AddNodeID(ids[i])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.4 {
					g.MustAddEdge(ids[i], ids[j])
				}
			}
		}
		tr := reduce(g)
		for _, u := range ids {
			for _, v := range ids {
				if g.HasPath(u, v) != tr.HasPath(u, v) {
					return false
				}
			}
		}
		return len(tr.RedundantEdges()) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReplaceNodeKeepsEdges(t *testing.T) {
	g := chain(t) // a->b->c->d->e
	memo := g.Nodes()
	if err := g.ReplaceNode("c", Node{ID: "z", Features: Features{"k": "v"}}); err != nil {
		t.Fatal(err)
	}
	if g.HasNode("c") || !g.HasNode("z") || g.NumNodes() != len(memo) {
		t.Fatalf("nodes after rename: %v", g.Nodes())
	}
	if got := g.Nodes(); got[len(got)-1] != "z" {
		t.Errorf("order memo not rebuilt after rename: %v", got)
	}
	if !g.HasEdge("b", "z") || !g.HasEdge("z", "d") || g.NumEdges() != 4 {
		t.Errorf("edges after rename: %v", g.Edges())
	}
	if n, _ := g.NodeByID("z"); n.Features["k"] != "v" {
		t.Errorf("features after rename: %v", n.Features)
	}
	if err := g.ReplaceNode("z", Node{ID: "z", Features: Features{"k": "w"}}); err != nil {
		t.Fatal(err)
	}
	if n, _ := g.NodeByID("z"); n.Features["k"] != "w" {
		t.Errorf("features after in-place replace: %v", n.Features)
	}
	if err := g.ReplaceNode("z", Node{ID: "a"}); err == nil {
		t.Error("rename onto an existing node accepted")
	}
	if err := g.ReplaceNode("nope", Node{ID: "q"}); err == nil {
		t.Error("replace of an unknown node accepted")
	}
}

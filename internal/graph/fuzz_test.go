package graph

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// FuzzGraphJSON feeds arbitrary bytes into the graph decoder: it must
// never panic, and anything it accepts must re-encode and decode to an
// equal graph.
func FuzzGraphJSON(f *testing.F) {
	f.Add([]byte(`{"nodes":[{"id":"a"},{"id":"b","features":{"k":"v"}}],"edges":[{"from":"a","to":"b","label":"l"}]}`))
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"id":"a"}],"edges":[{"from":"a","to":"a"}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"nodes":[{"id":"a","features":{"name":"x"}},{"id":"a","features":{"name":"y"}}],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"id":"p"},{"id":"q"}],"edges":[{"from":"p","to":"q"},{"from":"q","to":"zzz"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return // rejected: fine
		}
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("accepted graph failed to marshal: %v", err)
		}
		var back Graph
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip failed to decode: %v", err)
		}
		if !g.Equal(&back) {
			t.Fatal("round trip changed the graph")
		}
		// Basic invariants hold on anything accepted.
		if g.NumEdges() > 0 && g.NumNodes() == 0 {
			t.Fatal("edges without nodes")
		}
		for _, e := range g.Edges() {
			if !g.HasNode(e.From) || !g.HasNode(e.To) {
				t.Fatalf("dangling edge %s", e.ID())
			}
		}
	})
}

// opsModel is the reference FuzzGraphOps holds the graph to: plain maps,
// every answer computed by sorting on demand.
type opsModel struct {
	nodes map[NodeID]Features
	edges map[EdgeID]string
}

func (m *opsModel) addEdge(e Edge) string {
	switch _, dup := m.edges[e.ID()]; {
	case e.From == e.To:
		return fmt.Sprintf("graph: self loop %s rejected", e.From)
	case m.nodes[e.From] == nil:
		return fmt.Sprintf("graph: edge %s: unknown source node", e.ID())
	case m.nodes[e.To] == nil:
		return fmt.Sprintf("graph: edge %s: unknown destination node", e.ID())
	case dup:
		return fmt.Sprintf("graph: duplicate edge %s", e.ID())
	}
	m.edges[e.ID()] = e.Label
	return ""
}

func (m *opsModel) removeNode(id NodeID) bool {
	if m.nodes[id] == nil {
		return false
	}
	delete(m.nodes, id)
	for e := range m.edges {
		if e.From == id || e.To == id {
			delete(m.edges, e)
		}
	}
	return true
}

// adjacent returns the sorted, de-duplicated nodes joined to id by an
// edge in the selected directions.
func (m *opsModel) adjacent(id NodeID, out, in bool) []NodeID {
	var ids []NodeID
	for e := range m.edges {
		if out && e.From == id {
			ids = append(ids, e.To)
		}
		if in && e.To == id {
			ids = append(ids, e.From)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// connectedPairs counts the nodes other than id that reach id or that id
// reaches.
func (m *opsModel) connectedPairs(id NodeID) int {
	union := map[NodeID]bool{}
	for _, out := range []bool{true, false} {
		seen := map[NodeID]bool{id: true}
		for stack := []NodeID{id}; len(stack) > 0; {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range m.adjacent(cur, out, !out) {
				if !seen[next] {
					seen[next] = true
					union[next] = true
					stack = append(stack, next)
				}
			}
		}
	}
	delete(union, id)
	return len(union)
}

func (m *opsModel) sortedEdges() []Edge {
	var es []Edge
	for id, label := range m.edges {
		es = append(es, Edge{From: id.From, To: id.To, Label: label})
	}
	slices.SortFunc(es, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return es
}

// opsIDs is FuzzGraphOps's id universe; ids sort in a different order
// than the slots they are first given.
var opsIDs = [...]NodeID{"m", "c", "x", "a", "q", "f"}

// checkAgainstModel compares every accessor of g with the model.
func checkAgainstModel(t *testing.T, step int, g *Graph, m *opsModel) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: "+format, append([]any{step}, args...)...)
	}
	// Adjacency first, so it is read both before and after Nodes builds
	// the order memo.
	adjacency := func() {
		t.Helper()
		for _, id := range opsIDs {
			succ, pred := m.adjacent(id, true, false), m.adjacent(id, false, true)
			if got := g.Successors(id); !slices.Equal(got, succ) {
				fail("Successors(%s) = %v, want %v", id, got, succ)
			}
			if got := g.Predecessors(id); !slices.Equal(got, pred) {
				fail("Predecessors(%s) = %v, want %v", id, got, pred)
			}
			if g.OutDegree(id) != len(succ) || g.Degree(id) != len(succ)+len(pred) {
				fail("degrees of %s = %d/%d, want %d/%d", id, g.OutDegree(id), g.Degree(id), len(succ), len(pred))
			}
		}
	}
	adjacency()
	if g.NumNodes() != len(m.nodes) || g.NumEdges() != len(m.edges) {
		fail("counts %d/%d, want %d/%d", g.NumNodes(), g.NumEdges(), len(m.nodes), len(m.edges))
	}
	want := slices.Sorted(maps.Keys(m.nodes))
	if got := g.Nodes(); !slices.Equal(got, want) {
		fail("Nodes = %v, want %v", got, want)
	}
	if got, want := g.Edges(), m.sortedEdges(); !slices.Equal(got, want) {
		fail("Edges = %v, want %v", got, want)
	}
	adjacency()
	for _, from := range opsIDs {
		n, ok := g.NodeByID(from)
		if f, wantOK := m.nodes[from]; ok != wantOK || g.HasNode(from) != wantOK || ok && (n.ID != from || !n.Features.Equal(f)) {
			fail("NodeByID(%s) = %v %v, want %v %v", from, n, ok, f, wantOK)
		}
		for _, to := range opsIDs {
			label, wantOK := m.edges[EdgeID{from, to}]
			if g.HasEdge(from, to) != wantOK {
				fail("HasEdge(%s, %s) = %v", from, to, !wantOK)
			}
			e, ok := g.EdgeByID(EdgeID{from, to})
			if ok != wantOK || ok && e != (Edge{From: from, To: to, Label: label}) {
				fail("EdgeByID(%s->%s) = %v %v, want label %q %v", from, to, e, ok, label, wantOK)
			}
		}
	}
}

// FuzzGraphOps decodes bytes into a sequence of graph mutations over a
// small id universe — node adds and replacements, edge adds (including the
// duplicate, self-loop and unknown-endpoint errors), edge and node
// removals, and re-adds of removed ids that reuse freed slots — and checks
// every accessor against opsModel after each step. At the end it checks
// Equal, Clone, the JSON round trip and ConnectedPairsAll, and that no
// operation wrote into a feature map the graph was handed: AddNode takes
// ownership without a copy, so each handed map must still hold exactly
// what it held when it was handed over.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 0, 1, 3, 1, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := New()
		m := &opsModel{nodes: map[NodeID]Features{}, edges: map[EdgeID]string{}}
		type handed struct{ m, was Features }
		var given []handed
		for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
			a, b := opsIDs[int(data[i+1])%len(opsIDs)], opsIDs[int(data[i+2])%len(opsIDs)]
			switch data[i] % 5 {
			case 0: // add or replace
				feats := Features{"v": fmt.Sprint(data[i+2] % 3)}
				g.AddNode(Node{ID: a, Features: feats})
				m.nodes[a] = feats.Clone()
				given = append(given, handed{feats, feats.Clone()})
			case 1:
				e := Edge{From: a, To: b, Label: fmt.Sprint("l", data[i+2]%2)}
				var got string
				if err := g.AddEdge(e); err != nil {
					got = err.Error()
				}
				if want := m.addEdge(e); got != want {
					t.Fatalf("step %d: AddEdge(%v) error %q, want %q", i/3, e, got, want)
				}
			case 2:
				_, want := m.edges[EdgeID{a, b}]
				delete(m.edges, EdgeID{a, b})
				if got := g.RemoveEdge(a, b); got != want {
					t.Fatalf("step %d: RemoveEdge(%s, %s) = %v, want %v", i/3, a, b, got, want)
				}
			case 3:
				if got, want := g.RemoveNode(a), m.removeNode(a); got != want {
					t.Fatalf("step %d: RemoveNode(%s) = %v, want %v", i/3, a, got, want)
				}
			case 4: // featureless add; a no-op on a present id
				g.AddNodeID(a)
				if m.nodes[a] == nil {
					m.nodes[a] = Features{}
				}
			}
			checkAgainstModel(t, i/3, g, m)
		}

		ref := New()
		for id, feats := range m.nodes {
			ref.AddNode(Node{ID: id, Features: feats})
		}
		for _, e := range m.sortedEdges() {
			if err := ref.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		if !g.Equal(ref) || !ref.Equal(g) {
			t.Fatal("graph not Equal to the model's")
		}
		c := g.Clone()
		if !c.Equal(g) {
			t.Fatal("Clone not Equal")
		}
		c.AddNodeID("clone-only")
		for _, id := range opsIDs {
			c.RemoveNode(id)
		}
		checkAgainstModel(t, -1, g, m)
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var back Graph
		if err := json.Unmarshal(out, &back); err != nil || !back.Equal(g) {
			t.Fatalf("JSON round trip: %v", err)
		}
		all := g.ConnectedPairsAll()
		if len(all) != g.NumNodes() {
			t.Fatalf("ConnectedPairsAll has %d counts for %d nodes", len(all), g.NumNodes())
		}
		for _, id := range g.Nodes() {
			if want := m.connectedPairs(id); all[id] != want {
				t.Fatalf("ConnectedPairsAll[%s] = %d, want %d", id, all[id], want)
			}
		}
		for i, h := range given {
			if !h.m.Equal(h.was) {
				t.Fatalf("feature map %d handed to AddNode was written into: %v, handed as %v", i, h.m, h.was)
			}
		}
	})
}

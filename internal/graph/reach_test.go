package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/workload"
)

// connectedPairs returns |ancestors ∪ descendants| of id: the number of
// nodes connected to id by a directed path to or from it, counted one
// node at a time. It is the oracle ConnectedPairsAll is checked against.
func connectedPairs(g *graph.Graph, id graph.NodeID) int {
	if !g.HasNode(id) {
		return 0
	}
	union := g.Reachable(id, graph.Forward)
	for n := range g.Reachable(id, graph.Backward) {
		union[n] = true
	}
	return len(union)
}

// checkAgainstPerNode asserts the all-nodes kernel agrees with the
// single-node connectedPairs on every node of g.
func checkAgainstPerNode(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	all := g.ConnectedPairsAll()
	if len(all) != g.NumNodes() {
		t.Fatalf("%s: %d counts for %d nodes", name, len(all), g.NumNodes())
	}
	for _, id := range g.Nodes() {
		got, ok := all[id]
		if want := connectedPairs(g, id); !ok || got != want {
			t.Fatalf("%s: node %s: kernel %d (present %v), per-node %d", name, id, got, ok, want)
		}
	}
}

// randomGraph builds n nodes with each ordered pair wired with
// probability p; with cyclic false only lower-to-higher rank edges are
// drawn, so the graph is a DAG.
func randomGraph(r *rand.Rand, n int, p float64, cyclic bool) *graph.Graph {
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(fmt.Sprintf("v%04d", i))
		g.AddNodeID(ids[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || (!cyclic && j < i) {
				continue
			}
			if r.Float64() < p {
				g.MustAddEdge(ids[i], ids[j])
			}
		}
	}
	return g
}

func TestConnectedPairsAllMatchesPerNode(t *testing.T) {
	checkAgainstPerNode(t, "empty", graph.New())
	single := graph.New()
	single.AddNodeID("only")
	checkAgainstPerNode(t, "single", single)

	r := rand.New(rand.NewSource(12))
	for i := 0; i < 60; i++ {
		n := 2 + r.Intn(40)
		p := 0.02 + 0.3*r.Float64()
		checkAgainstPerNode(t, fmt.Sprintf("dag %d", i), randomGraph(r, n, p, false))
		// Sparse cyclic graphs mix singleton and multi-node SCCs; denser
		// ones collapse into a few large components.
		checkAgainstPerNode(t, fmt.Sprintf("cyclic %d", i), randomGraph(r, n, p/3, true))
	}
}

// Self-contained SCCs: two disjoint rings, one of them feeding a tail and
// fed by a head, plus an isolated node.
func TestConnectedPairsAllSCCs(t *testing.T) {
	g := graph.New()
	for _, id := range []graph.NodeID{"a1", "a2", "a3", "b1", "b2", "head", "tail", "iso"} {
		g.AddNodeID(id)
	}
	for _, e := range [][2]graph.NodeID{
		{"a1", "a2"}, {"a2", "a3"}, {"a3", "a1"},
		{"b1", "b2"}, {"b2", "b1"},
		{"head", "a2"}, {"a3", "tail"},
	} {
		g.MustAddEdge(e[0], e[1])
	}
	checkAgainstPerNode(t, "rings", g)
	all := g.ConnectedPairsAll()
	for id, want := range map[graph.NodeID]int{"a1": 4, "b1": 1, "head": 4, "tail": 4, "iso": 0} {
		if all[id] != want {
			t.Errorf("ConnectedPairsAll[%s] = %d, want %d", id, all[id], want)
		}
	}
}

// More nodes than one 512-column block holds, acyclic and cyclic, so
// counts are accumulated across blocks and components straddle a block
// boundary.
func TestConnectedPairsAllMultiBlock(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	checkAgainstPerNode(t, "wide dag", randomGraph(r, 1300, 0.004, false))
	checkAgainstPerNode(t, "wide cyclic", randomGraph(r, 700, 0.0015, true))
}

// largeClosure is the backward depth-5 closure of one upper node of a
// GenerateLarge graph shaped like cmd/plusbench's (10 000 nodes, 5 edges
// per node): the graph a cold lineage miss measures.
func largeClosure(b *testing.B) *graph.Graph {
	b.Helper()
	g := graph.New()
	err := workload.GenerateLarge(workload.LargeConfig{Nodes: 10000, EdgesPerNode: 5, Seed: 7},
		func(batch plus.Batch) error {
			for _, o := range batch.Objects {
				g.AddNodeID(graph.NodeID(o.ID))
			}
			for _, e := range batch.Edges {
				g.MustAddEdge(graph.NodeID(e.From), graph.NodeID(e.To))
			}
			return nil
		})
	if err != nil {
		b.Fatal(err)
	}
	level := []graph.NodeID{graph.NodeID(workload.LargeNodeID(9500))}
	keep := map[graph.NodeID]bool{level[0]: true}
	for d := 0; d < 5; d++ {
		var next []graph.NodeID
		for _, id := range level {
			for _, p := range g.Predecessors(id) {
				if !keep[p] {
					keep[p] = true
					next = append(next, p)
				}
			}
		}
		level = next
	}
	sub := graph.New()
	for id := range keep {
		sub.AddNodeID(id)
	}
	for _, e := range g.Edges() {
		if keep[e.From] && keep[e.To] {
			sub.MustAddEdge(e.From, e.To)
		}
	}
	return sub
}

var benchSink int

func BenchmarkConnectedPairsAll(b *testing.B) {
	g := largeClosure(b)
	b.Logf("closure: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(g.ConnectedPairsAll())
		}
	})
	b.Run("per-node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, id := range g.Nodes() {
				benchSink += connectedPairs(g, id)
			}
		}
	})
}

package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// plusbenchShape lists the nodes and edges of a graph of the shape
// plusbench loads: n ranked nodes with four small-pool features each,
// wired by up to five "input-to" edges drawn from earlier ranks.
func plusbenchShape(n int, seed int64) ([]Node, []Edge) {
	r := rand.New(rand.NewSource(seed))
	nodes := make([]Node, n)
	var edges []Edge
	for i := range nodes {
		id := NodeID(fmt.Sprintf("n%07d", i))
		nodes[i] = Node{ID: id, Features: Features{
			"name":  fmt.Sprintf("name%05d", r.Intn(max(n/20, 1))),
			"owner": fmt.Sprintf("u%04d", r.Intn(50)),
			"stage": fmt.Sprintf("s%d", r.Intn(8)),
			"batch": fmt.Sprintf("b%05d", r.Intn(200)),
		}}
		srcs := map[int]bool{}
		for e := 0; i > 0 && e < 5; e++ {
			if j := r.Intn(i); !srcs[j] {
				srcs[j] = true
				edges = append(edges, Edge{From: nodes[j].ID, To: id, Label: "input-to"})
			}
		}
	}
	return nodes, edges
}

func build(nodes []Node, edges []Edge) *Graph {
	g := New()
	for _, n := range nodes {
		g.AddNode(n)
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			panic(err)
		}
	}
	return g
}

func plusbenchShaped(n int, seed int64) *Graph { return build(plusbenchShape(n, seed)) }

// TestNodesOnUnchangedGraphCopiesTheMemo pins that the sort order is
// memoised: once built, a repeated Nodes allocates only its result.
func TestNodesOnUnchangedGraphCopiesTheMemo(t *testing.T) {
	g := plusbenchShaped(1000, 1)
	if a := testing.AllocsPerRun(20, func() { g.Nodes() }); a != 1 {
		t.Errorf("Nodes on an unchanged 1000-node graph: %v allocations, want 1", a)
	}
}

// TestEdgesAllocationsIndependentOfSize pins that Edges orders each
// successor list in one scratch buffer: the allocation count is a
// constant, the same at 100 and 1000 nodes.
func TestEdgesAllocationsIndependentOfSize(t *testing.T) {
	small, large := plusbenchShaped(100, 2), plusbenchShaped(1000, 2)
	as := testing.AllocsPerRun(10, func() { small.Edges() })
	al := testing.AllocsPerRun(10, func() { large.Edges() })
	if as != al || al > 4 {
		t.Errorf("Edges allocations: %v at 100 nodes, %v at 1000; want the same small constant", as, al)
	}
}

// TestOrderMemoRebuiltAfterNodeChanges checks every ordered accessor after
// node inserts and removals that each drop the memo, including a removed
// slot reused by a new id that sorts elsewhere.
func TestOrderMemoRebuiltAfterNodeChanges(t *testing.T) {
	g := New()
	for _, id := range []NodeID{"m", "c", "x"} {
		g.AddNodeID(id)
	}
	g.MustAddEdge("m", "x")
	g.MustAddEdge("m", "c")
	check := func(step string, nodes []NodeID, edges []EdgeID, succM []NodeID) {
		t.Helper()
		if got := g.Nodes(); !slices.Equal(got, nodes) {
			t.Errorf("%s: Nodes = %v, want %v", step, got, nodes)
		}
		var got []EdgeID
		for _, e := range g.Edges() {
			got = append(got, e.ID())
		}
		if !slices.Equal(got, edges) {
			t.Errorf("%s: Edges = %v, want %v", step, got, edges)
		}
		if got := g.Successors("m"); !slices.Equal(got, succM) {
			t.Errorf("%s: Successors(m) = %v, want %v", step, got, succM)
		}
	}
	check("built", []NodeID{"c", "m", "x"}, []EdgeID{{"m", "c"}, {"m", "x"}}, []NodeID{"c", "x"})

	g.AddNodeID("a")
	g.MustAddEdge("m", "a")
	check("after AddNode", []NodeID{"a", "c", "m", "x"},
		[]EdgeID{{"m", "a"}, {"m", "c"}, {"m", "x"}}, []NodeID{"a", "c", "x"})

	g.RemoveNode("c")
	check("after RemoveNode", []NodeID{"a", "m", "x"}, []EdgeID{{"m", "a"}, {"m", "x"}}, []NodeID{"a", "x"})

	// The new node takes c's slot but sorts last.
	g.AddNodeID("z")
	g.MustAddEdge("m", "z")
	g.MustAddEdge("z", "a")
	check("after slot reuse", []NodeID{"a", "m", "x", "z"},
		[]EdgeID{{"m", "a"}, {"m", "x"}, {"m", "z"}, {"z", "a"}}, []NodeID{"a", "x", "z"})
	if got := g.Predecessors("a"); !slices.Equal(got, []NodeID{"m", "z"}) {
		t.Errorf("Predecessors(a) = %v, want [m z]", got)
	}
}

// TestConcurrentReadersAfterMutation runs every ordered reader from many
// goroutines straight after a mutation, so they race to build the order
// memo; all must see the answers a single reader sees.
func TestConcurrentReadersAfterMutation(t *testing.T) {
	g := plusbenchShaped(300, 3)
	type view struct {
		nodes []NodeID
		edges []Edge
		succ  [][]NodeID
		pred  [][]NodeID
		pairs map[NodeID]int
	}
	read := func() view {
		v := view{nodes: g.Nodes(), edges: g.Edges(), pairs: g.ConnectedPairsAll()}
		for _, id := range v.nodes {
			v.succ = append(v.succ, g.Successors(id))
			v.pred = append(v.pred, g.Predecessors(id))
		}
		return v
	}
	for round := 0; round < 3; round++ {
		// Drop the memo: a node removal, and a new node in its slot.
		victim := NodeID(fmt.Sprintf("n%07d", 10+round))
		g.RemoveNode(victim)
		g.AddNodeID(NodeID(fmt.Sprintf("late%d", round)))
		g.MustAddEdge("n0000000", NodeID(fmt.Sprintf("late%d", round)))

		const readers = 8
		views := make([]view, readers)
		var wg sync.WaitGroup
		for i := range views {
			wg.Add(1)
			go func() {
				defer wg.Done()
				views[i] = read()
			}()
		}
		wg.Wait()
		want := read()
		for i, v := range views {
			if !slices.Equal(v.nodes, want.nodes) || !slices.Equal(v.edges, want.edges) ||
				!slices.EqualFunc(v.succ, want.succ, slices.Equal) ||
				!slices.EqualFunc(v.pred, want.pred, slices.Equal) ||
				!maps.Equal(v.pairs, want.pairs) {
				t.Fatalf("round %d: reader %d saw a different graph", round, i)
			}
		}
	}
}

// BenchmarkBuildAndOrder builds a plusbench-shaped 1000-node graph and
// reads it in order once: the work a lineage answer's graph costs.
func BenchmarkBuildAndOrder(b *testing.B) {
	nodes, edges := plusbenchShape(1000, 4)
	b.ReportAllocs()
	for b.Loop() {
		g := build(nodes, edges)
		g.Nodes()
		g.Edges()
	}
}

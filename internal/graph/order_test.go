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

// TestRenameKeepsOrderInPlace: a rename that leaves the node's place in
// the order keeps the memo (a clone renaming its nodes, as a protected
// account replaces originals by their surrogates, sorts nothing again),
// one that moves it drops the memo, and the clone's renames never reach
// the source's order.
func TestRenameKeepsOrderInPlace(t *testing.T) {
	g := New()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		g.AddNode(Node{ID: id})
	}
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "d")
	g.Nodes()
	c := g.Clone()
	memo := c.order.Load()
	if err := c.ReplaceNode("b", Node{ID: "b~"}); err != nil {
		t.Fatal(err)
	}
	if c.order.Load() != memo {
		t.Error("a rename between its neighbours dropped the order memo")
	}
	if got, want := c.Nodes(), []NodeID{"a", "b~", "c", "d"}; !slices.Equal(got, want) {
		t.Errorf("after an in-place rename Nodes = %v, want %v", got, want)
	}
	if err := c.ReplaceNode("a", Node{ID: "e"}); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Nodes(), []NodeID{"b~", "c", "d", "e"}; !slices.Equal(got, want) {
		t.Errorf("after a moving rename Nodes = %v, want %v", got, want)
	}
	if got, want := slices.Collect(func(yield func(string) bool) {
		for e := range c.SortedEdges() {
			if !yield(e.ID().String()) {
				return
			}
		}
	}), []string{"b~->d", "e->b~"}; !slices.Equal(got, want) {
		t.Errorf("SortedEdges = %v, want %v", got, want)
	}
	if got, want := g.Nodes(), []NodeID{"a", "b", "c", "d"}; !slices.Equal(got, want) {
		t.Errorf("the source's Nodes = %v after the clone's renames, want %v", got, want)
	}
}

// TestReleasedGraphsAreReusedClean: a released graph comes back from
// NewSized and from Clone empty of everything it held, builds and clones
// exactly as a new one does, and its release leaves the graphs it shared
// feature maps and an order memo with untouched.
func TestReleasedGraphsAreReusedClean(t *testing.T) {
	for len(spare) > 0 {
		<-spare
	}
	nodes, edges := plusbenchShape(200, 3)
	g := build(nodes, edges)
	want := g.Edges()
	c := g.Clone()
	c.RemoveEdge(want[0].From, want[0].To)
	Release(c)
	if len(spare) != 1 {
		t.Fatalf("%d spare graphs after one release, want 1", len(spare))
	}
	if !slices.Equal(g.Edges(), want) || g.NumNodes() != len(nodes) {
		t.Fatal("releasing a clone changed its source")
	}
	for _, n := range nodes[:5] {
		if got, _ := g.NodeByID(n.ID); !got.Features.Equal(n.Features) {
			t.Fatalf("releasing a clone changed the features of %s", n.ID)
		}
	}

	h := NewSized(3, 2)
	if len(spare) != 0 || h.NumNodes() != 0 || h.NumEdges() != 0 || h.NumSlots() != 0 || len(h.Nodes()) != 0 {
		t.Fatalf("NewSized did not hand back the released graph empty: %d nodes, %d edges, %d slots", h.NumNodes(), h.NumEdges(), h.NumSlots())
	}
	for _, id := range []NodeID{"z", "x", "y"} {
		h.AddNode(Node{ID: id})
	}
	h.MustAddEdge("x", "y")
	h.MustAddEdge("z", "x")
	if got := h.Nodes(); !slices.Equal(got, []NodeID{"x", "y", "z"}) {
		t.Errorf("reused graph Nodes = %v", got)
	}
	if got := h.Edges(); len(got) != 2 || got[0].ID() != (EdgeID{"x", "y"}) || got[1].ID() != (EdgeID{"z", "x"}) {
		t.Errorf("reused graph Edges = %v", got)
	}

	Release(h)
	c2 := g.Clone()
	if len(spare) != 0 || !c2.Equal(g) || !slices.Equal(c2.Edges(), want) {
		t.Fatal("a clone built on a released graph differs from its source")
	}
	c2.RemoveEdge(want[1].From, want[1].To)
	if !slices.Equal(g.Edges(), want) {
		t.Fatal("a clone built on a released graph shares adjacency with its source")
	}

	for len(spare) > 0 {
		<-spare
	}
	big := NewSized(0, 0)
	for i := range maxSpareSlots + 1 {
		big.AddNode(Node{ID: NodeID(fmt.Sprint(i))})
	}
	Release(big)
	if len(spare) != 0 {
		t.Error("a graph past maxSpareSlots was kept")
	}
}

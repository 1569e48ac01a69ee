// Package graph implements the directed, attributed graph model that the
// rest of the library is built on: nodes carrying feature (attribute,
// value) pairs, directed edges, adjacency indexes and the traversal
// primitives (reachability, weak components, shortest paths) that the
// protected-account algorithms and the utility/opacity measures need.
//
// The model follows §2 of the paper: a graph G = (N, E) of nodes and
// directed edges; bi-directional relationships are modelled as two
// directed edges; node features are attribute-value pairs.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/intern"
)

// NodeID identifies a node within one graph. IDs are opaque strings chosen
// by the caller (e.g. "c", "f'", or a provenance object UUID).
type NodeID string

// EdgeID identifies a directed edge by its endpoints. A graph holds at most
// one edge per ordered (From, To) pair; parallel edges are not needed by the
// paper's model and are rejected on insert.
type EdgeID struct {
	From NodeID
	To   NodeID
}

// String renders the edge as "from->to".
func (e EdgeID) String() string { return string(e.From) + "->" + string(e.To) }

// Reverse returns the edge identifier with the endpoints swapped.
func (e EdgeID) Reverse() EdgeID { return EdgeID{From: e.To, To: e.From} }

// Features is the attribute-value map attached to a node ("timestamp",
// "author", ... per §2). A nil Features map is equivalent to an empty one.
type Features map[string]string

// Clone returns an independent copy of the feature map.
func (f Features) Clone() Features {
	if f == nil {
		return nil
	}
	out := make(Features, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// Equal reports whether two feature maps contain exactly the same pairs.
func (f Features) Equal(g Features) bool {
	if len(f) != len(g) {
		return false
	}
	for k, v := range f {
		if gv, ok := g[k]; !ok || gv != v {
			return false
		}
	}
	return true
}

// Interned returns an independent copy of the feature map whose keys and
// values are the canonical interned strings (intern.Canon): value-equal to
// the originals, but every graph holding the same attribute or value
// shares one backing array, and each carries a symbol for integer
// comparison in the secondary indexes.
func (f Features) Interned() Features {
	if f == nil {
		return nil
	}
	out := make(Features, len(f))
	for k, v := range f {
		out[intern.Canon(k)] = intern.Canon(v)
	}
	return out
}

// Keys returns the attribute names in sorted order.
func (f Features) Keys() []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Node is a graph node: an identifier plus its feature set. Nodes are value
// types; Graph stores copies, so mutating a Node after insertion does not
// change the graph.
type Node struct {
	ID       NodeID
	Features Features
}

// Clone returns a deep copy of the node.
func (n Node) Clone() Node {
	return Node{ID: n.ID, Features: n.Features.Clone()}
}

// Edge is a directed edge together with an optional label (e.g. the
// provenance relationship kind such as "input-to").
type Edge struct {
	From  NodeID
	To    NodeID
	Label string
}

// ID returns the edge's identifier.
func (e Edge) ID() EdgeID { return EdgeID{From: e.From, To: e.To} }

// Graph is a mutable directed graph. It maintains forward and reverse
// adjacency indexes so that both traversal directions are O(out-degree) /
// O(in-degree). Graph is not safe for concurrent mutation; concurrent
// readers are safe once mutation has stopped.
type Graph struct {
	nodes map[NodeID]Node
	edges map[EdgeID]Edge
	out   map[NodeID][]NodeID // successors, sorted lazily on demand
	in    map[NodeID][]NodeID // predecessors
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]Node),
		edges: make(map[EdgeID]Edge),
		out:   make(map[NodeID][]NodeID),
		in:    make(map[NodeID][]NodeID),
	}
}

// NumNodes returns |N|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode inserts a node, replacing any node with the same ID. The node's
// feature map is copied, with keys and values canonicalised through the
// global intern table so every graph shares one backing string per
// distinct attribute or value.
func (g *Graph) AddNode(n Node) {
	n.Features = n.Features.Interned()
	g.nodes[n.ID] = n
	if _, ok := g.out[n.ID]; !ok {
		g.out[n.ID] = nil
		g.in[n.ID] = nil
	}
}

// AddNodeID inserts a featureless node with the given id if not present.
func (g *Graph) AddNodeID(id NodeID) {
	if _, ok := g.nodes[id]; !ok {
		g.AddNode(Node{ID: id})
	}
}

// HasNode reports whether id names a node of the graph.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// NodeByID returns the node with the given id.
func (g *Graph) NodeByID(id NodeID) (Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// AddEdge inserts a directed edge. Both endpoints must already exist and a
// duplicate (From,To) pair is an error, as is a self loop.
func (g *Graph) AddEdge(e Edge) error {
	if e.From == e.To {
		return fmt.Errorf("graph: self loop %s rejected", e.From)
	}
	if !g.HasNode(e.From) {
		return fmt.Errorf("graph: edge %s: unknown source node", e.ID())
	}
	if !g.HasNode(e.To) {
		return fmt.Errorf("graph: edge %s: unknown destination node", e.ID())
	}
	id := e.ID()
	if _, dup := g.edges[id]; dup {
		return fmt.Errorf("graph: duplicate edge %s", id)
	}
	g.edges[id] = e
	g.out[e.From] = append(g.out[e.From], e.To)
	g.in[e.To] = append(g.in[e.To], e.From)
	return nil
}

// MustAddEdge is AddEdge for static construction code; it panics on error.
func (g *Graph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(Edge{From: from, To: to}); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the directed edge from->to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	_, ok := g.edges[EdgeID{From: from, To: to}]
	return ok
}

// EdgeByID returns the edge with the given endpoints.
func (g *Graph) EdgeByID(id EdgeID) (Edge, bool) {
	e, ok := g.edges[id]
	return e, ok
}

// RemoveEdge deletes the directed edge from->to if present and reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	id := EdgeID{From: from, To: to}
	if _, ok := g.edges[id]; !ok {
		return false
	}
	delete(g.edges, id)
	g.out[from] = removeFirst(g.out[from], to)
	g.in[to] = removeFirst(g.in[to], from)
	return true
}

// RemoveNode deletes a node and every edge incident to it, reporting
// whether the node existed.
func (g *Graph) RemoveNode(id NodeID) bool {
	if !g.HasNode(id) {
		return false
	}
	for _, to := range append([]NodeID(nil), g.out[id]...) {
		g.RemoveEdge(id, to)
	}
	for _, from := range append([]NodeID(nil), g.in[id]...) {
		g.RemoveEdge(from, id)
	}
	delete(g.nodes, id)
	delete(g.out, id)
	delete(g.in, id)
	return true
}

func removeFirst(s []NodeID, v NodeID) []NodeID {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Nodes returns all node IDs in sorted order. Sorting keeps every consumer
// of the library deterministic, which matters for reproducible experiments.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	return ids
}

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, len(g.edges))
	for _, e := range g.edges {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}

// Successors returns the targets of the node's outgoing edges, sorted.
func (g *Graph) Successors(id NodeID) []NodeID {
	return sortedCopy(g.out[id])
}

// Predecessors returns the sources of the node's incoming edges, sorted.
func (g *Graph) Predecessors(id NodeID) []NodeID {
	return sortedCopy(g.in[id])
}

// Neighbors returns the union of successors and predecessors, sorted and
// de-duplicated. This is the undirected adjacency used by weak-connectivity
// computations.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	seen := make(map[NodeID]bool, len(g.out[id])+len(g.in[id]))
	var ns []NodeID
	for _, v := range g.out[id] {
		if !seen[v] {
			seen[v] = true
			ns = append(ns, v)
		}
	}
	for _, v := range g.in[id] {
		if !seen[v] {
			seen[v] = true
			ns = append(ns, v)
		}
	}
	sortNodeIDs(ns)
	return ns
}

// OutDegree returns the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of incoming edges of id.
func (g *Graph) InDegree(id NodeID) int { return len(g.in[id]) }

// Degree returns the total number of incident edges (in + out).
func (g *Graph) Degree(id NodeID) int { return len(g.out[id]) + len(g.in[id]) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for _, n := range g.nodes {
		c.AddNode(n)
	}
	for _, e := range g.edges {
		if err := c.AddEdge(e); err != nil {
			// Unreachable: the source graph is well formed by construction.
			panic(err)
		}
	}
	return c
}

// Equal reports structural equality: same node IDs with equal features and
// the same edge set (labels included).
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for id, n := range g.nodes {
		hn, ok := h.nodes[id]
		if !ok || !n.Features.Equal(hn.Features) {
			return false
		}
	}
	for id, e := range g.edges {
		he, ok := h.edges[id]
		if !ok || he.Label != e.Label {
			return false
		}
	}
	return true
}

func sortedCopy(s []NodeID) []NodeID {
	out := append([]NodeID(nil), s...)
	sortNodeIDs(out)
	return out
}

func sortNodeIDs(s []NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

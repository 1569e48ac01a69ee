// Package graph implements the directed, attributed graph model that the
// rest of the library is built on: nodes carrying feature (attribute,
// value) pairs, directed edges, adjacency indexes and the traversal
// primitives (reachability, connected pairs, redundant edges) that the
// protected-account algorithms and the utility/opacity measures need.
//
// The model follows §2 of the paper: a graph G = (N, E) of nodes and
// directed edges; bi-directional relationships are modelled as two
// directed edges; node features are attribute-value pairs.
//
// A Graph keeps one map from node id to a dense int32 slot; nodes,
// adjacency and edges are held by slot, and the sorted node order that
// every accessor returns is memoised until a node is added or removed.
// The slots are also the id space of the all-nodes reachability kernel
// (ConnectedPairsAll). A Graph is not safe for concurrent mutation;
// concurrent readers are safe once mutation stops, the first of them
// building the order memo.
package graph

import (
	"fmt"
	"iter"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
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

// Node is a graph node: an identifier plus its feature set. A feature map
// is immutable once it is handed to a Graph: AddNode takes ownership of it
// without a copy, and NodeByID, Clone and graphs derived from this one
// share it. A caller that wants different features builds a new map (or
// Features.Clone) and adds the node again; no graph operation ever writes
// into a feature map.
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

// Graph is a mutable directed graph held on dense int32 slots. One map
// gives each node id its slot; the nodes and their forward and reverse
// adjacency are slices indexed by slot, and the edge set is keyed by the
// packed (from, to) slot pair, so an edge costs two int32 list entries and
// one map entry, never a string key. RemoveNode returns its slot to a free
// list that the next new node reuses.
//
// The sorted node order every accessor promises is computed once and
// memoised: the live slots in id order plus each slot's rank in it. Any
// node insert or removal drops the memo; edge changes, feature
// replacement and a rename that leaves the node's place in the order
// unchanged keep it. With the memo, Nodes copies it, Edges orders each
// successor list by integer rank, and Successors / Predecessors /
// Neighbors sort by rank instead of comparing strings.
//
// Graph is not safe for concurrent mutation. Concurrent readers are safe
// once mutation has stopped: the first reader after a mutation builds the
// order memo and publishes it atomically, and readers that race to build
// it build the same order.
type Graph struct {
	slot  map[NodeID]int32  // node id -> slot
	nodes []Node            // by slot; a free slot holds the zero Node
	out   [][]int32         // successor slots, in insertion order
	in    [][]int32         // predecessor slots, in insertion order
	edges map[uint64]string // edgeKey(from, to) -> label
	free  []int32           // slots of removed nodes, reused first
	order atomic.Pointer[sortOrder]

	// adj is the backing array of the adjacency windows Clone cut, kept so
	// that a released graph reused as a clone cuts them from it again.
	adj []int32
}

// sortOrder is the memoised node order: slots lists the live slots in
// ascending id order and rank[s] is slot s's position in it. It is never
// mutated once published.
type sortOrder struct {
	slots []int32
	rank  []int32
}

// byRank orders slots as their ids sort.
func (o *sortOrder) byRank(a, b int32) int { return int(o.rank[a]) - int(o.rank[b]) }

func edgeKey(from, to int32) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// New returns an empty graph.
func New() *Graph { return NewSized(0, 0) }

// NewSized returns an empty graph with room for the given numbers of nodes
// and edges, so that adding that many grows none of its maps or slot
// slices. It is a graph Release handed back when there is one.
func NewSized(nodes, edges int) *Graph {
	if g := reuse(nodes); g != nil {
		g.nodes = slices.Grow(g.nodes, nodes)
		g.out = slices.Grow(g.out, nodes)
		g.in = slices.Grow(g.in, nodes)
		return g
	}
	return &Graph{
		slot:  make(map[NodeID]int32, nodes),
		nodes: make([]Node, 0, nodes),
		out:   make([][]int32, 0, nodes),
		in:    make([][]int32, 0, nodes),
		edges: make(map[uint64]string, edges),
	}
}

// spare holds the graphs Release handed back, for NewSized and Clone to
// build on instead of allocating: two per processor, as a lineage miss
// builds two (G and G′), and none of more than maxSpareSlots slots, so
// what it retains stays within a few megabytes.
var spare = make(chan *Graph, 2*runtime.GOMAXPROCS(0))

const maxSpareSlots = 1 << 12

// Release hands back a graph that nothing will read or write again, so
// that a later NewSized or Clone reuses the capacity of its maps and
// slices: a graph built over and over at about the same size then costs
// almost no allocation. The caller must hold the only reference to g and
// must not touch g afterwards; graphs cloned from g, or g from, keep
// their feature maps and order memo, which Release never writes.
func Release(g *Graph) {
	if cap(g.nodes) > maxSpareSlots {
		return
	}
	clear(g.slot)
	clear(g.edges)
	clear(g.nodes) // drops the feature maps
	g.nodes = g.nodes[:0]
	clear(g.out)
	g.out = g.out[:0]
	clear(g.in)
	g.in = g.in[:0]
	g.free = g.free[:0]
	g.order.Store(nil)
	select {
	case spare <- g:
	default:
	}
}

// reuse returns a released graph, empty, for a graph of n nodes, or nil
// when there is none. Graphs past maxSpareSlots nodes are never built on a
// spare: filling one would grow its maps entry by entry, slower than
// making them at the right size.
func reuse(n int) *Graph {
	if n > maxSpareSlots {
		return nil
	}
	select {
	case g := <-spare:
		return g
	default:
		return nil
	}
}

// NumNodes returns |N|.
func (g *Graph) NumNodes() int { return len(g.slot) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode inserts a node, replacing any node with the same ID. The graph
// takes ownership of the node's feature map: it is not copied, and the
// caller must not write into it afterwards (see Node).
func (g *Graph) AddNode(n Node) {
	if s, ok := g.slot[n.ID]; ok {
		g.nodes[s] = n
		return
	}
	var s int32
	if k := len(g.free); k > 0 {
		s = g.free[k-1]
		g.free = g.free[:k-1]
		g.nodes[s] = n
	} else {
		s = int32(len(g.nodes))
		g.nodes = append(g.nodes, n)
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
	g.slot[n.ID] = s
	g.order.Store(nil)
}

// ReplaceNode writes n into the slot of node old, which keeps its incident
// edges: a rename when n.ID differs from old. It fails when old is not a
// node or n.ID names another node.
func (g *Graph) ReplaceNode(old NodeID, n Node) error {
	s, ok := g.slot[old]
	if !ok {
		return fmt.Errorf("graph: replace %s: unknown node", old)
	}
	if n.ID != old {
		if _, taken := g.slot[n.ID]; taken {
			return fmt.Errorf("graph: replace %s: node %s exists", old, n.ID)
		}
		delete(g.slot, old)
		g.slot[n.ID] = s
		if o := g.order.Load(); o != nil && !o.holds(g, s, n.ID) {
			g.order.Store(nil)
		}
	}
	g.nodes[s] = n
	return nil
}

// holds reports whether the order stays sorted when the node in slot s is
// renamed id: whether id still sorts between its neighbours in it.
func (o *sortOrder) holds(g *Graph, s int32, id NodeID) bool {
	r := int(o.rank[s])
	return (r == 0 || g.nodes[o.slots[r-1]].ID < id) && (r == len(o.slots)-1 || id < g.nodes[o.slots[r+1]].ID)
}

// AddNodeID inserts a featureless node with the given id if not present.
func (g *Graph) AddNodeID(id NodeID) {
	if _, ok := g.slot[id]; !ok {
		g.AddNode(Node{ID: id})
	}
}

// HasNode reports whether id names a node of the graph.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.slot[id]
	return ok
}

// NodeByID returns the node with the given id.
func (g *Graph) NodeByID(id NodeID) (Node, bool) {
	s, ok := g.slot[id]
	if !ok {
		return Node{}, false
	}
	return g.nodes[s], true
}

// NumSlots returns one past the highest slot the graph has used: every
// slot a node holds is below it, and a slice indexed by slot needs this
// length. A free slot (of a removed node) holds no node.
func (g *Graph) NumSlots() int { return len(g.nodes) }

// Slot returns the slot of node id.
func (g *Graph) Slot(id NodeID) (int32, bool) {
	s, ok := g.slot[id]
	return s, ok
}

// SlotID returns the id of the node in slot s, or "" for a free slot.
func (g *Graph) SlotID(s int32) NodeID { return g.nodes[s].ID }

// OutSlots returns the slots of the successors of the node in slot s, in
// insertion order. The slice is the graph's own: the caller must not
// modify it, and it is valid until the graph is next mutated.
func (g *Graph) OutSlots(s int32) []int32 { return g.out[s] }

// InSlots is OutSlots for the predecessors.
func (g *Graph) InSlots(s int32) []int32 { return g.in[s] }

// HasSlotEdge reports whether the directed edge between the nodes in
// slots from and to exists.
func (g *Graph) HasSlotEdge(from, to int32) bool {
	_, ok := g.edges[edgeKey(from, to)]
	return ok
}

// AddEdge inserts a directed edge. Both endpoints must already exist and a
// duplicate (From,To) pair is an error, as is a self loop.
func (g *Graph) AddEdge(e Edge) error {
	if e.From == e.To {
		return fmt.Errorf("graph: self loop %s rejected", e.From)
	}
	from, ok := g.slot[e.From]
	if !ok {
		return fmt.Errorf("graph: edge %s: unknown source node", e.ID())
	}
	to, ok := g.slot[e.To]
	if !ok {
		return fmt.Errorf("graph: edge %s: unknown destination node", e.ID())
	}
	k := edgeKey(from, to)
	if _, dup := g.edges[k]; dup {
		return fmt.Errorf("graph: duplicate edge %s", e.ID())
	}
	g.edges[k] = e.Label
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
	return nil
}

// MustAddEdge is AddEdge for static construction code; it panics on error.
func (g *Graph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(Edge{From: from, To: to}); err != nil {
		panic(err)
	}
}

// edgeSlots returns the slots of the edge's endpoints if both are nodes.
func (g *Graph) edgeSlots(from, to NodeID) (int32, int32, bool) {
	f, ok := g.slot[from]
	if !ok {
		return 0, 0, false
	}
	t, ok := g.slot[to]
	return f, t, ok
}

// HasEdge reports whether the directed edge from->to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	f, t, ok := g.edgeSlots(from, to)
	if !ok {
		return false
	}
	_, ok = g.edges[edgeKey(f, t)]
	return ok
}

// EdgeByID returns the edge with the given endpoints.
func (g *Graph) EdgeByID(id EdgeID) (Edge, bool) {
	f, t, ok := g.edgeSlots(id.From, id.To)
	if !ok {
		return Edge{}, false
	}
	label, ok := g.edges[edgeKey(f, t)]
	if !ok {
		return Edge{}, false
	}
	return Edge{From: g.nodes[f].ID, To: g.nodes[t].ID, Label: label}, true
}

// RemoveEdge deletes the directed edge from->to if present and reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	f, t, ok := g.edgeSlots(from, to)
	if !ok {
		return false
	}
	k := edgeKey(f, t)
	if _, ok := g.edges[k]; !ok {
		return false
	}
	delete(g.edges, k)
	g.out[f] = removeFirst(g.out[f], t)
	g.in[t] = removeFirst(g.in[t], f)
	return true
}

// RemoveNode deletes a node and every edge incident to it, reporting
// whether the node existed. Its slot goes to the free list.
func (g *Graph) RemoveNode(id NodeID) bool {
	s, ok := g.slot[id]
	if !ok {
		return false
	}
	for _, t := range g.out[s] {
		delete(g.edges, edgeKey(s, t))
		g.in[t] = removeFirst(g.in[t], s)
	}
	for _, f := range g.in[s] {
		delete(g.edges, edgeKey(f, s))
		g.out[f] = removeFirst(g.out[f], s)
	}
	g.out[s] = g.out[s][:0]
	g.in[s] = g.in[s][:0]
	g.nodes[s] = Node{}
	delete(g.slot, id)
	g.free = append(g.free, s)
	g.order.Store(nil)
	return true
}

func removeFirst(s []int32, v int32) []int32 {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// sorted returns the node order memo, building and publishing it if a
// mutation dropped it.
func (g *Graph) sorted() *sortOrder {
	if o := g.order.Load(); o != nil {
		return o
	}
	o := &sortOrder{slots: make([]int32, 0, len(g.slot)), rank: make([]int32, len(g.nodes))}
	for _, s := range g.slot {
		o.slots = append(o.slots, s)
	}
	slices.SortFunc(o.slots, func(a, b int32) int {
		return strings.Compare(string(g.nodes[a].ID), string(g.nodes[b].ID))
	})
	for r, s := range o.slots {
		o.rank[s] = int32(r)
	}
	g.order.Store(o)
	return o
}

// Nodes returns all node IDs in sorted order. Sorting keeps every consumer
// of the library deterministic, which matters for reproducible experiments.
func (g *Graph) Nodes() []NodeID {
	o := g.sorted()
	ids := make([]NodeID, len(o.slots))
	for i, s := range o.slots {
		ids[i] = g.nodes[s].ID
	}
	return ids
}

// SortedNodes yields every node in the order Nodes returns their ids,
// reading the memoised order in place instead of copying it.
func (g *Graph) SortedNodes() iter.Seq[Node] {
	return func(yield func(Node) bool) {
		for _, s := range g.sorted().slots {
			if !yield(g.nodes[s]) {
				return
			}
		}
	}
}

// SortedSlots returns the slots of the nodes in the order Nodes returns
// their ids. The slice is the graph's memoised order: the caller must not
// modify it, and it is valid until a node is next added or removed.
func (g *Graph) SortedSlots() []int32 { return g.sorted().slots }

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	return slices.AppendSeq(make([]Edge, 0, len(g.edges)), g.SortedEdges())
}

// SortedEdges yields every edge in the order Edges returns them, without
// building the slice: each successor list is ordered by memoised rank in
// one scratch buffer as its source comes up.
func (g *Graph) SortedEdges() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		o := g.sorted()
		byRank := o.byRank // one method value, not one per source node
		widest := 0
		for _, succ := range g.out {
			widest = max(widest, len(succ))
		}
		buf := make([]int32, 0, widest)
		for _, f := range o.slots {
			buf = append(buf[:0], g.out[f]...)
			slices.SortFunc(buf, byRank)
			from := g.nodes[f].ID
			for _, t := range buf {
				if !yield(Edge{From: from, To: g.nodes[t].ID, Label: g.edges[edgeKey(f, t)]}) {
					return
				}
			}
		}
	}
}

// Successors returns the targets of the node's outgoing edges, sorted.
func (g *Graph) Successors(id NodeID) []NodeID {
	s, ok := g.slot[id]
	if !ok {
		return nil
	}
	return g.sortedIDs(g.out[s])
}

// Predecessors returns the sources of the node's incoming edges, sorted.
func (g *Graph) Predecessors(id NodeID) []NodeID {
	s, ok := g.slot[id]
	if !ok {
		return nil
	}
	return g.sortedIDs(g.in[s])
}

// sortedIDs returns the ids of the slots, sorted: by memoised rank when
// the memo is present, by id otherwise. It returns nil for no slots.
func (g *Graph) sortedIDs(slots []int32) []NodeID {
	if len(slots) == 0 {
		return nil
	}
	ids := make([]NodeID, 0, len(slots))
	o := g.order.Load()
	if o == nil {
		for _, s := range slots {
			ids = append(ids, g.nodes[s].ID)
		}
		slices.Sort(ids)
		return ids
	}
	slots = slices.Clone(slots)
	slices.SortFunc(slots, o.byRank)
	for _, s := range slots {
		ids = append(ids, g.nodes[s].ID)
	}
	return ids
}

// degree returns the lengths of the node's successor and predecessor
// lists.
func (g *Graph) degree(id NodeID) (out, in int) {
	s, ok := g.slot[id]
	if !ok {
		return 0, 0
	}
	return len(g.out[s]), len(g.in[s])
}

// OutDegree returns the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int {
	out, _ := g.degree(id)
	return out
}

// Degree returns the total number of incident edges (in + out).
func (g *Graph) Degree(id NodeID) int {
	out, in := g.degree(id)
	return out + in
}

// Clone returns a copy of the graph that mutates independently of it. It
// keeps the source's slots, so the order memo, if built, is shared, and it
// shares the nodes' feature maps, which no graph writes into (see Node).
// Every adjacency list is a capacity-bounded window of one backing array:
// an append moves that list out, a removal stays inside its window.
// The copy is a graph Release handed back when there is one.
func (g *Graph) Clone() *Graph {
	c := reuse(len(g.nodes))
	if c == nil {
		c = &Graph{slot: maps.Clone(g.slot), edges: maps.Clone(g.edges)}
	} else {
		maps.Copy(c.slot, g.slot)
		maps.Copy(c.edges, g.edges)
	}
	c.nodes = append(c.nodes[:0], g.nodes...)
	c.out = slices.Grow(c.out[:0], len(g.out))[:len(g.out)]
	c.in = slices.Grow(c.in[:0], len(g.in))[:len(g.in)]
	c.free = append(c.free[:0], g.free...)
	buf := c.adj[:0]
	if cap(buf) < 2*len(g.edges) {
		buf = make([]int32, 0, 2*len(g.edges))
	}
	c.adj = buf
	window := func(adj []int32) []int32 {
		lo := len(buf)
		buf = append(buf, adj...)
		return buf[lo:len(buf):len(buf)]
	}
	for s := range g.nodes {
		c.out[s] = window(g.out[s])
		c.in[s] = window(g.in[s])
	}
	c.order.Store(g.order.Load())
	return c
}

// Equal reports structural equality: same node IDs with equal features and
// the same edge set (labels included).
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for id, s := range g.slot {
		hn, ok := h.NodeByID(id)
		if !ok || !g.nodes[s].Features.Equal(hn.Features) {
			return false
		}
	}
	for k, label := range g.edges {
		f, t, ok := h.edgeSlots(g.nodes[k>>32].ID, g.nodes[uint32(k)].ID)
		if !ok {
			return false
		}
		if hl, ok := h.edges[edgeKey(f, t)]; !ok || hl != label {
			return false
		}
	}
	return true
}

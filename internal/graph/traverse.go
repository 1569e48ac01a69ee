package graph

import "slices"

// Direction selects which adjacency a traversal follows.
type Direction int

const (
	// Forward follows edges from source to destination.
	Forward Direction = iota
	// Backward follows edges from destination to source.
	Backward
	// Undirected follows edges in both directions (weak connectivity).
	Undirected
)

func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Undirected:
		return "undirected"
	default:
		return "unknown"
	}
}

// step returns the slot lists a traversal in direction d follows from
// slot s: the successors, the predecessors, or both.
func (g *Graph) step(s int32, d Direction) [2][]int32 {
	switch d {
	case Forward:
		return [2][]int32{g.out[s]}
	case Backward:
		return [2][]int32{g.in[s]}
	default:
		return [2][]int32{g.out[s], g.in[s]}
	}
}

// Reachable returns the set of nodes reachable from start in the given
// direction, excluding start itself. BFS order; the result set is keyed by
// node id.
func (g *Graph) Reachable(start NodeID, d Direction) map[NodeID]bool {
	s, ok := g.slot[start]
	if !ok {
		return nil
	}
	seen := map[NodeID]bool{start: true}
	queue := []int32{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, list := range g.step(cur, d) {
			for _, next := range list {
				if id := g.nodes[next].ID; !seen[id] {
					seen[id] = true
					queue = append(queue, next)
				}
			}
		}
	}
	delete(seen, start)
	return seen
}

// ConnectedCount returns |Reachable(start, d)|: the number of nodes other
// than start that are connected to start in the given direction.
func (g *Graph) ConnectedCount(start NodeID, d Direction) int {
	return len(g.Reachable(start, d))
}

// ConnectedPairs returns |ancestors ∪ descendants| of id: the number of
// nodes connected to id by a directed path to or from it. This is the
// connectivity notion behind the Path Utility Measure's %P and the
// "connected pairs" density of §6.1.2 — the only reading under which every
// worked number in §4.1 and the paper's 30–100 density range hold together
// (see DESIGN.md).
func (g *Graph) ConnectedPairs(id NodeID) int {
	if !g.HasNode(id) {
		return 0
	}
	union := g.Reachable(id, Forward)
	for n := range g.Reachable(id, Backward) {
		union[n] = true
	}
	delete(union, id)
	return len(union)
}

// WeakComponents partitions the nodes into weakly connected components.
// Components are returned sorted by their smallest member, and members are
// sorted within each component.
func (g *Graph) WeakComponents() [][]NodeID {
	o := g.sorted()
	seen := make([]bool, len(g.nodes))
	var comps [][]NodeID
	for _, start := range o.slots {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := []int32{start}
		for i := 0; i < len(comp); i++ {
			for _, list := range g.step(comp[i], Undirected) {
				for _, next := range list {
					if !seen[next] {
						seen[next] = true
						comp = append(comp, next)
					}
				}
			}
		}
		slices.SortFunc(comp, o.byRank)
		ids := make([]NodeID, len(comp))
		for i, s := range comp {
			ids[i] = g.nodes[s].ID
		}
		comps = append(comps, ids)
	}
	return comps
}

// IsWeaklyConnected reports whether the graph has at most one weak
// component (the property the synthetic evaluation graphs must have,
// §6.1.2: "no disconnected subgraphs").
func (g *Graph) IsWeaklyConnected() bool {
	return len(g.WeakComponents()) <= 1
}

// ShortestPath returns one shortest directed path from src to dst as a node
// sequence including both endpoints, or nil if dst is unreachable. Among
// equal-length paths the lexicographically first (by node id at each hop)
// is returned, keeping results deterministic.
func (g *Graph) ShortestPath(src, dst NodeID) []NodeID {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil
	}
	if src == dst {
		return []NodeID{src}
	}
	prev := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.Successors(cur) { // sorted: deterministic tie-break
			if _, ok := prev[next]; ok {
				continue
			}
			prev[next] = cur
			if next == dst {
				return rebuildPath(prev, src, dst)
			}
			queue = append(queue, next)
		}
	}
	return nil
}

func rebuildPath(prev map[NodeID]NodeID, src, dst NodeID) []NodeID {
	var rev []NodeID
	for cur := dst; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Distances returns the BFS hop count from start to every reachable node in
// the given direction (start maps to 0).
func (g *Graph) Distances(start NodeID, d Direction) map[NodeID]int {
	s, ok := g.slot[start]
	if !ok {
		return nil
	}
	dist := map[NodeID]int{start: 0}
	queue := []int32{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := dist[g.nodes[cur].ID] + 1
		for _, list := range g.step(cur, d) {
			for _, v := range list {
				id := g.nodes[v].ID
				if _, ok := dist[id]; !ok {
					dist[id] = next
					queue = append(queue, v)
				}
			}
		}
	}
	return dist
}

// TopoSort returns the nodes in a topological order and true, or nil and
// false if the graph contains a directed cycle. Kahn's algorithm with a
// sorted frontier for determinism.
func (g *Graph) TopoSort() ([]NodeID, bool) {
	o := g.sorted()
	indeg := make([]int, len(g.nodes))
	var frontier []int32
	for _, s := range o.slots { // ascending id: the frontier starts sorted
		indeg[s] = len(g.in[s])
		if indeg[s] == 0 {
			frontier = append(frontier, s)
		}
	}
	var order []NodeID
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		order = append(order, g.nodes[cur].ID)
		for _, v := range g.out[cur] {
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
			}
		}
		// Keep the frontier sorted after appending the newly freed nodes.
		slices.SortFunc(frontier, o.byRank)
	}
	if len(order) != len(g.slot) {
		return nil, false
	}
	return order, true
}

// IsDAG reports whether the graph is acyclic (provenance graphs are DAGs,
// footnote 1 of the paper).
func (g *Graph) IsDAG() bool {
	_, ok := g.TopoSort()
	return ok
}

// HasPath reports whether a directed path (of length >= 0) exists from src
// to dst.
func (g *Graph) HasPath(src, dst NodeID) bool {
	if src == dst {
		return g.HasNode(src)
	}
	return g.Reachable(src, Forward)[dst]
}

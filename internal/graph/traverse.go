package graph

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

// HasPath reports whether a directed path (of length >= 0) exists from src
// to dst.
func (g *Graph) HasPath(src, dst NodeID) bool {
	if src == dst {
		return g.HasNode(src)
	}
	return g.Reachable(src, Forward)[dst]
}

// RedundantEdges returns, in Edges order, the edges (u,v) for which a
// longer directed path u -> ... -> v exists that avoids the edge itself —
// the edges a transitive reduction would delete. On protected accounts these are
// exactly the surrogate edges that restate connectivity already present,
// which the redundancy analysis in internal/eval counts.
func (g *Graph) RedundantEdges() []EdgeID {
	var out []EdgeID
	for _, e := range g.Edges() {
		if g.hasPathAvoiding(e.From, e.To, e.ID()) {
			out = append(out, e.ID())
		}
	}
	return out
}

// hasPathAvoiding reports a directed path src -> dst that never traverses
// the excluded edge.
func (g *Graph) hasPathAvoiding(src, dst NodeID, excluded EdgeID) bool {
	s, t, ok := g.edgeSlots(src, dst)
	if !ok {
		return false
	}
	xf, xt, _ := g.edgeSlots(excluded.From, excluded.To)
	seen := map[int32]bool{s: true}
	queue := []int32{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.out[cur] {
			if cur == xf && next == xt {
				continue
			}
			if next == t {
				return true
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

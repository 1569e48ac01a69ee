package graph

import (
	"slices"
	"sort"
)

// Ancestors returns all nodes with a directed path to id, sorted.
func (g *Graph) Ancestors(id NodeID) []NodeID {
	return setToSorted(g.Reachable(id, Backward))
}

// Descendants returns all nodes reachable from id, sorted.
func (g *Graph) Descendants(id NodeID) []NodeID {
	return setToSorted(g.Reachable(id, Forward))
}

func setToSorted(set map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Induced returns the subgraph induced by the given node set: those nodes
// (with their features) and every edge of g whose endpoints are both in
// the set.
func (g *Graph) Induced(ids []NodeID) *Graph {
	sub := New()
	keep := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		if n, ok := g.NodeByID(id); ok {
			keep[id] = true
			sub.AddNode(n)
		}
	}
	for _, e := range g.Edges() {
		if keep[e.From] && keep[e.To] {
			// Both endpoints kept, so the insert cannot fail.
			if err := sub.AddEdge(e); err != nil {
				panic(err)
			}
		}
	}
	return sub
}

// TransitiveClosure returns, for every node, the set of nodes it reaches.
// Intended for analysis and tests; O(n·(n+e)).
func (g *Graph) TransitiveClosure() map[NodeID]map[NodeID]bool {
	out := make(map[NodeID]map[NodeID]bool, g.NumNodes())
	for _, id := range g.Nodes() {
		out[id] = g.Reachable(id, Forward)
	}
	return out
}

// RedundantEdges returns the edges (u,v) for which a longer directed path
// u -> ... -> v exists that avoids the edge itself — the edges a
// transitive reduction would delete. On protected accounts these are
// exactly the surrogate edges that restate connectivity already present,
// which the redundancy analysis in internal/eval counts.
func (g *Graph) RedundantEdges() []EdgeID {
	var out []EdgeID
	for _, e := range g.Edges() {
		if g.hasPathAvoiding(e.From, e.To, e.ID()) {
			out = append(out, e.ID())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
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

// TransitiveReduction returns a copy of the graph with every redundant
// edge removed. For DAGs this is the unique minimal graph with the same
// reachability.
func (g *Graph) TransitiveReduction() *Graph {
	red := g.Clone()
	for _, e := range g.RedundantEdges() {
		red.RemoveEdge(e.From, e.To)
	}
	return red
}

// SimplePaths enumerates directed simple paths from src to dst, up to the
// given limit (0 means no limit) and maximum length in edges (0 means no
// bound). Paths are emitted in lexicographic successor order, each as a
// node sequence including both endpoints. Intended for small graphs and
// tests; the worst case is exponential.
func (g *Graph) SimplePaths(src, dst NodeID, limit, maxLen int) [][]NodeID {
	if !g.HasNode(src) || !g.HasNode(dst) || src == dst {
		return nil
	}
	var out [][]NodeID
	onPath := map[NodeID]bool{src: true}
	path := []NodeID{src}
	var dfs func(cur NodeID) bool // returns false when the limit is hit
	dfs = func(cur NodeID) bool {
		if maxLen > 0 && len(path)-1 >= maxLen {
			return true
		}
		for _, next := range g.Successors(cur) {
			if onPath[next] {
				continue
			}
			path = append(path, next)
			if next == dst {
				cp := make([]NodeID, len(path))
				copy(cp, path)
				out = append(out, cp)
				path = path[:len(path)-1]
				if limit > 0 && len(out) >= limit {
					return false
				}
				continue
			}
			onPath[next] = true
			ok := dfs(next)
			onPath[next] = false
			path = path[:len(path)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	dfs(src)
	return out
}

// LongestPathDAG returns the length in edges of the longest directed path
// in the graph and one such path. It requires a DAG; ok is false
// otherwise.
func (g *Graph) LongestPathDAG() (length int, path []NodeID, ok bool) {
	order, isDAG := g.TopoSort()
	if !isDAG {
		return 0, nil, false
	}
	dist := make(map[NodeID]int, len(order))
	prev := make(map[NodeID]NodeID, len(order))
	bestEnd := NodeID("")
	best := 0
	for _, id := range order {
		if _, ok := dist[id]; !ok {
			dist[id] = 0
		}
		if bestEnd == "" {
			bestEnd = id
		}
		for _, next := range g.Successors(id) {
			if dist[id]+1 > dist[next] {
				dist[next] = dist[id] + 1
				prev[next] = id
				if dist[next] > best {
					best = dist[next]
					bestEnd = next
				}
			}
		}
	}
	if bestEnd == "" {
		return 0, nil, g.NumNodes() == 0
	}
	var rev []NodeID
	for cur := bestEnd; ; {
		rev = append(rev, cur)
		p, ok := prev[cur]
		if !ok {
			break
		}
		cur = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return best, rev, true
}

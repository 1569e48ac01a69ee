package graph

import "math/bits"

// reachBlockWords is the width, in 64-bit words, of the column block the
// all-nodes reachability kernel works on: 512 columns, so one row of one
// block is exactly one cache line.
const reachBlockWords = 8

// ConnectedPairsAll returns, for every node id of the graph in one pass,
// |ancestors(id) ∪ descendants(id)|: the number of nodes connected to id
// by a directed path to or from it. This is the connectivity notion behind
// the Path Utility Measure's %P and the "connected pairs" density of
// §6.1.2. The tests check it against a per-node walk.
//
// The kernel runs on the graph's own slots and slot adjacency, condensed
// into strongly connected components (every component a singleton on a
// DAG, so cyclic and acyclic graphs take the same path), and the
// descendant and ancestor sets of every component are then built by
// dynamic programming over the components' topological order on bitset
// rows — one row per component, one column per node, processed
// reachBlockWords words of columns at a time. Work is O((n+e)·n/64) word
// operations; scratch is one 64-byte block row per component (plus the
// O(n) index arrays), never the n²/8 bytes of a full closure matrix.
func (g *Graph) ConnectedPairsAll() map[NodeID]int {
	counts := make(map[NodeID]int, len(g.slot))
	if len(g.slot) == 0 {
		return counts
	}

	// The graph's slots are the dense ids and its slot adjacency the
	// forward lists; a free slot is an isolated node whose count is never
	// read.
	adj := g.out
	n := len(adj)
	comp, members, start := condense(adj)
	k := len(start) - 1

	// Row c holds, for the current column block, the columns (positions
	// in members) of every node in component c's descendant — then
	// ancestor — set, the component's own members included.
	const blockBits = reachBlockWords * 64
	rows := make([]uint64, k*reachBlockWords)
	row := func(c int32) []uint64 {
		return rows[int(c)*reachBlockWords : (int(c)+1)*reachBlockWords]
	}
	seed := func(lo int) {
		clear(rows)
		for col, hi := lo, min(lo+blockBits, n); col < hi; col++ {
			c := comp[members[col]]
			rows[int(c)*reachBlockWords+(col-lo)>>6] |= 1 << uint((col-lo)&63)
		}
	}
	// reach[c] accumulates |descendants| + |ancestors| of component c over
	// the blocks, each side counting c's own members once.
	reach := make([]int, k)
	for lo := 0; lo < n; lo += blockBits {
		// Components are numbered in reverse topological order: every
		// edge leaves a higher-numbered component for a lower one. Going
		// up, each successor's row is final when it is pulled in.
		seed(lo)
		for c := int32(0); int(c) < k; c++ {
			r := row(c)
			for _, u := range members[start[c]:start[c+1]] {
				for _, v := range adj[u] {
					if cv := comp[v]; cv != c {
						orInto(r, row(cv))
					}
				}
			}
			reach[c] += popcount(r)
		}
		// Going down, every predecessor has pushed its row into c by the
		// time c is reached.
		seed(lo)
		for c := int32(k - 1); c >= 0; c-- {
			r := row(c)
			reach[c] += popcount(r)
			for _, u := range members[start[c]:start[c+1]] {
				for _, v := range adj[u] {
					if cv := comp[v]; cv != c {
						orInto(row(cv), r)
					}
				}
			}
		}
	}

	// Both sides counted the component itself; the node is connected to
	// its size-1 fellow members and to neither side's copy of itself.
	for id, u := range g.slot {
		c := comp[u]
		counts[id] = reach[c] - int(start[c+1]-start[c]) - 1
	}
	return counts
}

func orInto(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func popcount(r []uint64) int {
	var c int
	for _, w := range r {
		c += bits.OnesCount64(w)
	}
	return c
}

// condense partitions the graph given by its forward slot lists into
// strongly connected components with an iterative Tarjan walk (no
// recursion: lineage chains can be as deep as the graph). comp maps a
// node to its component; members lists the nodes grouped by component,
// component c occupying members[start[c]:start[c+1]]. Components come
// out in reverse topological order of the condensation: an edge between
// two components always runs from the higher-numbered to the
// lower-numbered one.
func condense(adj [][]int32) (comp, members, start []int32) {
	n := len(adj)
	const unvisited = 0
	index := make([]int32, n) // visit number, 1-based
	low := make([]int32, n)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1 // unassigned: unvisited or still on the stack
	}
	members = make([]int32, 0, n)
	start = make([]int32, 0, n+1)

	type frame struct{ v, next int32 }
	var (
		stack []int32 // Tarjan's node stack
		calls []frame // the simulated recursion
		visit int32
	)
	for root := int32(0); int(root) < n; root++ {
		if index[root] != unvisited {
			continue
		}
		visit++
		index[root], low[root] = visit, visit
		stack = append(stack, root)
		calls = append(calls, frame{v: root})
		for len(calls) > 0 {
			f := &calls[len(calls)-1]
			v := f.v
			if int(f.next) < len(adj[v]) {
				w := adj[v][f.next]
				f.next++
				switch {
				case index[w] == unvisited:
					visit++
					index[w], low[w] = visit, visit
					stack = append(stack, w)
					calls = append(calls, frame{v: w})
				case comp[w] < 0 && index[w] < low[v]:
					low[v] = index[w]
				}
				continue
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				if p := calls[len(calls)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			c := int32(len(start))
			start = append(start, int32(len(members)))
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp[w] = c
				members = append(members, w)
				if w == v {
					break
				}
			}
		}
	}
	start = append(start, int32(len(members)))
	return comp, members, start
}

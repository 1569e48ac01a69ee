package graph

import (
	"math/bits"
	"runtime"
	"slices"
)

// reachBlockWords is the width, in 64-bit words, of the column block the
// all-nodes reachability kernel works on: 512 columns, so one row of one
// block is exactly one cache line.
const reachBlockWords = 8

// ConnectedPairsAll returns, for every node id of the graph in one pass,
// |ancestors(id) ∪ descendants(id)|: the number of nodes connected to id
// by a directed path to or from it. This is the connectivity notion behind
// the Path Utility Measure's %P and the "connected pairs" density of
// §6.1.2. It is ConnectedCounts keyed by id; the tests check it against a
// per-node walk.
func (g *Graph) ConnectedPairsAll() map[NodeID]int {
	counts := make(map[NodeID]int, len(g.slot))
	conn := g.ConnectedCounts()
	for id, s := range g.slot {
		counts[id] = conn[s]
	}
	return counts
}

// ConnectedCounts is ConnectedPairsAll indexed by slot: conn[s] counts the
// nodes connected to the node in slot s, and the count of a free slot is
// meaningless. It has NumSlots entries.
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
func (g *Graph) ConnectedCounts() []int {
	// The graph's slots are the dense ids and its slot adjacency the
	// forward lists; a free slot is an isolated node whose count is never
	// read.
	adj := g.out
	n := len(adj)
	conn := make([]int, n)
	if len(g.slot) == 0 {
		return conn
	}
	var sc *kernelScratch
	select {
	case sc = <-kernelSpare:
	default:
		sc = new(kernelScratch)
	}
	defer sc.release(n)
	comp, members, start := sc.condense(adj)
	k := len(start) - 1

	// Row c holds, for the current column block, the columns (positions
	// in members) of every node in component c's descendant — then
	// ancestor — set, the component's own members included.
	const blockBits = reachBlockWords * 64
	sc.rows = resize(sc.rows, k*reachBlockWords)
	rows := sc.rows
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
	sc.reach = resize(sc.reach, k)
	reach := sc.reach
	clear(reach)
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
	for u := range conn {
		c := comp[u]
		conn[u] = reach[c] - int(start[c+1]-start[c]) - 1
	}
	return conn
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
func (sc *kernelScratch) condense(adj [][]int32) (comp, members, start []int32) {
	n := len(adj)
	const unvisited = 0
	index := resize(sc.index, n) // visit number, 1-based
	clear(index)
	low := resize(sc.low, n)
	comp = resize(sc.comp, n)
	for i := range comp {
		comp[i] = -1 // unassigned: unvisited or still on the stack
	}
	members = slices.Grow(sc.members[:0], n)
	start = slices.Grow(sc.start[:0], n+1)
	var (
		stack = sc.stack[:0] // Tarjan's node stack
		calls = sc.calls[:0] // the simulated recursion
		visit int32
	)
	defer func() { sc.index, sc.low, sc.stack, sc.calls = index, low, stack, calls }()
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
	sc.comp, sc.members, sc.start = comp, members, start
	return comp, members, start
}

// kernelScratch is the working memory of one ConnectedCounts run. Runs
// take it from kernelSpare and put it back, one per processor at most and
// none grown for more than maxSpareSlots slots, so the counts of a graph
// of a size seen before allocate only the slice they return.
type kernelScratch struct {
	index, low, comp, members, start, stack []int32
	calls                                   []frame
	rows                                    []uint64
	reach                                   []int
}

// frame is one call of condense's simulated recursion.
type frame struct{ v, next int32 }

var kernelSpare = make(chan *kernelScratch, runtime.GOMAXPROCS(0))

// release puts the scratch of a run over n slots back for the next run.
func (sc *kernelScratch) release(n int) {
	if n > maxSpareSlots {
		return
	}
	select {
	case kernelSpare <- sc:
	default:
	}
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resize[E any](s []E, n int) []E { return slices.Grow(s[:0], n)[:n] }

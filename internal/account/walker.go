package account

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/policy"
)

// walker evaluates effective markings and runs the Algorithm 2 anchor
// searches over one (view, account) pair, for generation and maintenance
// alike. Its state is keyed by the int32 slots of the spec graph G: a walk
// steps over G's slot adjacency, and the view marks of an edge's two
// incidences, the presence of a node in G', the anchor sets of finished
// walks and the anchor pairs connect has examined are memoised by slot or
// packed slot pair. The memos fill as the walks reach nodes and edges, so
// a walker costs what its walks touch, never O(|G|) up front: a
// maintenance pass stays as small as its delta.
type walker struct {
	view  hwView
	acct  *Account
	g     *graph.Graph     // the spec graph, whose slots key the memos
	onAdd func(graph.Edge) // observes edges connect adds; may be nil

	memo    [2]map[int32][]int32 // walk(s, dir, crossed) by dir: anchor slots in id order
	marks   map[uint64]edgeMarks // resolve(from, to), by slotPair
	present map[int32]bool       // whether the node in a slot has a node in G'
	tried   map[uint64]struct{}  // anchor pairs connect has examined, by slotPair

	// Scratch of walk, reused from one walk to the next.
	seen  map[int32]uint8 // states a node was queued in, one bit each
	queue []visit
	found []int32

	walked, pairs int  // (node, state) visits by walk, pairs examined by connect
	vetoed        bool // connect met a Definition 8 condition 2 veto
}

// visit is one (node, state) of an anchor walk.
type visit struct {
	s     int32
	state int
}

func newWalker(v hwView, a *Account) *walker {
	return &walker{
		view: v, acct: a, g: v.spec.Graph,
		marks:   map[uint64]edgeMarks{},
		present: map[int32]bool{},
		tried:   map[uint64]struct{}{},
		seen:    map[int32]uint8{},
	}
}

// slotPair packs the slots of an ordered node pair into one map key.
func slotPair(from, to int32) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// edgeMarks holds the combined view marks (hwView.mark) of an edge's
// source and destination incidences, two bits each.
type edgeMarks uint8

func (m edgeMarks) from() policy.Marking { return policy.Marking(m & 3) }
func (m edgeMarks) to() policy.Marking   { return policy.Marking(m >> 2) }

// hidden reports a Hide at either end: no walk crosses the edge.
func (m edgeMarks) hidden() bool { return m.from() == policy.Hide || m.to() == policy.Hide }

// resolve reads the view marks of the edge between the nodes in slots f
// and t from the policy.
func (w *walker) resolve(f, t int32) edgeMarks {
	e := graph.EdgeID{From: w.g.SlotID(f), To: w.g.SlotID(t)}
	return edgeMarks(w.view.mark(e.From, e)) | edgeMarks(w.view.mark(e.To, e))<<2
}

// marksOf is resolve, memoised for the walker's lifetime.
func (w *walker) marksOf(f, t int32) edgeMarks {
	k := slotPair(f, t)
	m, ok := w.marks[k]
	if !ok {
		m = w.resolve(f, t)
		w.marks[k] = m
	}
	return m
}

// isPresent reports, memoised, whether the node in slot s has a
// corresponding node in G'.
func (w *walker) isPresent(s int32) bool {
	p, ok := w.present[s]
	if !ok {
		p = w.acct.Present(w.g.SlotID(s))
		w.present[s] = p
	}
	return p
}

// effective is the view marking m of the incidence of the node in slot s
// with one safety adjustment: a Visible incidence of a node with no
// corresponding node in G' is downgraded to Surrogate. A node whose
// existence is not releasable cannot have edges shown, but the paths
// through it may still be summarised — this keeps inconsistent provider
// policies from silently destroying connectivity (see DESIGN.md).
func (w *walker) effective(m policy.Marking, s int32) policy.Marking {
	if m == policy.Visible && !w.isPresent(s) {
		return policy.Surrogate
	}
	return m
}

// dispose combines the effective marks of the edge f -> t, whose view
// marks are m (Algorithm 3).
func (w *walker) dispose(f, t int32, m edgeMarks) policy.Disposition {
	src := w.effective(m.from(), f)
	dst := w.effective(m.to(), t)
	switch {
	case src == policy.Hide || dst == policy.Hide:
		return policy.DropEdge
	case src == policy.Visible && dst == policy.Visible:
		return policy.ShowEdge
	default:
		return policy.ContractEdge
	}
}

// disposition is dispose over the memoised marks.
func (w *walker) disposition(f, t int32) policy.Disposition { return w.dispose(f, t, w.marksOf(f, t)) }

// ends returns the anchor sets of the Hide-free edge f -> t: the nearest
// Visible-incidence nodes upstream and downstream (Algorithm 2's
// stop-at-first-visible walk, which realises the "no shorter HW-permitted
// path" minimality rule) — the endpoint itself where its own incidence on
// the edge is effectively Visible.
func (w *walker) ends(f, t int32) (back, fwd []int32) {
	back, fwd = []int32{f}, []int32{t}
	m := w.marksOf(f, t)
	if w.effective(m.from(), f) != policy.Visible {
		back = w.walk(f, graph.Backward, crossed)
	}
	if w.effective(m.to(), t) != policy.Visible {
		fwd = w.walk(t, graph.Forward, crossed)
	}
	return back, fwd
}

// connect is the per-pair step of Algorithm 1 over the anchor pairs
// back × fwd, shared by generation and incremental maintenance: a pair
// with no direct edge gets a surrogate edge unless G' already joins it. It
// sets w.vetoed when Definition 8 condition 2 (a restricted direct edge
// between the anchors) vetoes a pair, in which case only the completion
// sweep restores maximal connectivity. w.onAdd, when non-nil, observes
// every edge added (maintenance uses it to patch view indexes).
func (w *walker) connect(back, fwd []int32) error {
	a := w.acct
	for _, u := range back {
		for _, v := range fwd {
			if u == v {
				continue
			}
			k := slotPair(u, v)
			if _, done := w.tried[k]; done {
				continue
			}
			w.tried[k] = struct{}{}
			w.pairs++
			if w.g.HasSlotEdge(u, v) {
				// Definition 8 condition 2: a pair with a direct edge
				// may only be connected when that edge's incidences
				// are both Visible — and then the edge is already in
				// G', so a surrogate edge is never interposed. A
				// non-Show direct edge vetoes the pair and may leave
				// longer permitted pairs unserved; the completion
				// sweep repairs exactly those.
				if w.disposition(u, v) != policy.ShowEdge {
					w.vetoed = true
				}
				continue
			}
			gu, gv := a.FromOriginal[w.g.SlotID(u)], a.FromOriginal[w.g.SlotID(v)]
			if a.Graph.HasEdge(gu, gv) {
				continue
			}
			ge := graph.Edge{From: gu, To: gv, Label: SurrogateEdgeLabel}
			if err := a.Graph.AddEdge(ge); err != nil {
				return err
			}
			a.SurrogateEdges[ge.ID()] = true
			if w.onAdd != nil {
				w.onAdd(ge)
			}
		}
	}
	return nil
}

// completionSweep repairs the pairs a condition 2 veto left unserved: the
// anchor walk connects nearest Visible anchors, but a restricted direct
// edge between an anchor pair can veto it while a longer pair further out
// remains HW-permitted and unserved. Sweep every present node's
// permitted-reachability set and interpose a surrogate edge for any pair
// maximal connectivity (Definition 9) still misses. Without a veto the
// anchor pass alone is maximal (every anchor pair got its edge, and
// permitted paths compose through anchors), so the sweep is skipped — the
// common fast path.
func (w *walker) completionSweep() error {
	a := w.acct
	origs := make([]graph.NodeID, 0, len(a.FromOriginal))
	for orig := range a.FromOriginal {
		origs = append(origs, orig)
	}
	sort.Slice(origs, func(i, j int) bool { return origs[i] < origs[j] })
	for _, u := range origs {
		us, _ := w.g.Slot(u)
		gu := a.FromOriginal[u]
		var missing []graph.NodeID
		reach := a.Graph.Reachable(gu, graph.Forward)
		for vs := range w.permittedFrom(us) {
			vv := w.g.SlotID(vs)
			if vs == us || reach[a.FromOriginal[vv]] {
				continue
			}
			if w.g.HasSlotEdge(us, vs) && w.disposition(us, vs) != policy.ShowEdge {
				continue // condition 2 veto
			}
			missing = append(missing, vv)
		}
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		for _, vv := range missing {
			gv := a.FromOriginal[vv]
			if a.Graph.HasPath(gu, gv) {
				continue // an earlier addition already connected the pair
			}
			ge := graph.Edge{From: gu, To: gv, Label: SurrogateEdgeLabel}
			if err := a.Graph.AddEdge(ge); err != nil {
				return err
			}
			a.SurrogateEdges[ge.ID()] = true
		}
	}
	return nil
}

// permittedFrom returns the slots of the nodes w (present in G', w != u)
// for which an HW-permitted path u -> ... -> w exists per Definition 8
// condition 1: no Hide incidence anywhere, the first incidence at u and the
// last incidence at w effectively Visible. Condition 2 (the direct-edge
// restriction) is per pair and applied by callers.
func (w *walker) permittedFrom(u int32) map[int32]bool {
	out := map[int32]bool{}
	seen := map[int32]bool{u: true}
	queue := []int32{u}
	first := true
	for len(queue) > 0 {
		var next []int32
		for _, cur := range queue {
			for _, succ := range w.g.OutSlots(cur) {
				m := w.marksOf(cur, succ)
				if m.hidden() {
					continue
				}
				// Leaving the start requires a Visible first incidence;
				// re-entering u later makes it an interior node, where any
				// non-Hide marking may be crossed.
				if first && w.effective(m.from(), u) != policy.Visible {
					continue
				}
				if succ != u && w.effective(m.to(), succ) == policy.Visible {
					out[succ] = true
				}
				if !seen[succ] {
					seen[succ] = true
					next = append(next, succ)
				}
			}
		}
		queue = next
		first = false
	}
	return out
}

// The two states of an anchor walk at a node.
const (
	approaching = iota // on a chain leading up to a contract edge
	crossed            // the contract edge lies behind
)

// walk runs the Algorithm 2 anchor search (BuildVisibleSet) from the node
// in slot start in the given direction across Hide-free edges, in one of
// two states per node. Crossed: collect the nearest nodes whose incidence
// on the edge reaching them is effectively Visible; the walk stops at each
// such anchor and walks through every other node. Approaching: follow only
// edges the current node's own incidence on is non-Visible (any such edge
// is a contract edge), either staying before the contract edge or taking
// this edge as it. So walk(s, dir, crossed) is the anchor set of a
// contract edge ending at s, memoised per (slot, direction), and walk(s,
// dir, approaching) the anchors beyond every contract edge a chain from s
// reaches. The anchors come as slots in node id order, for determinism.
func (w *walker) walk(start int32, dir graph.Direction, from int) []int32 {
	if got, ok := w.memo[dir][start]; ok && from == crossed {
		return got
	}
	clear(w.seen)
	w.seen[start] = 1 << from
	queue := append(w.queue[:0], visit{start, from})
	found := w.found[:0]
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		steps := w.g.OutSlots(cur.s)
		if dir == graph.Backward {
			steps = w.g.InSlots(cur.s)
		}
		for _, next := range steps {
			// The marks of the edge between cur and next, as the
			// incidence of each on it.
			var mCur, mNext policy.Marking
			if dir == graph.Backward {
				m := w.marksOf(next, cur.s)
				if m.hidden() {
					continue // the walk may not cross Hide incidences at either end
				}
				mCur, mNext = m.to(), m.from()
			} else {
				m := w.marksOf(cur.s, next)
				if m.hidden() {
					continue
				}
				mCur, mNext = m.from(), m.to()
			}
			// Over the edge, next is reached before the contract edge
			// (when approaching) and beyond it (unless an anchor: stop
			// there).
			first, last := crossed, crossed
			if cur.state == approaching {
				if w.effective(mCur, cur.s) == policy.Visible {
					continue // the chain does not leave cur over this edge
				}
				first = approaching
			}
			if w.effective(mNext, next) == policy.Visible {
				found = append(found, next)
				last = approaching
			}
			for s := first; s <= last; s++ {
				if bit := uint8(1) << s; w.seen[next]&bit == 0 {
					w.seen[next] |= bit
					queue = append(queue, visit{next, s})
				}
			}
		}
	}
	w.walked += len(queue)
	w.queue, w.found = queue, found
	slices.SortFunc(found, func(a, b int32) int { return strings.Compare(string(w.g.SlotID(a)), string(w.g.SlotID(b))) })
	out := slices.Clone(slices.Compact(found))
	if from == crossed {
		if w.memo[dir] == nil {
			w.memo[dir] = map[int32][]int32{}
		}
		w.memo[dir][start] = out
	}
	return out
}

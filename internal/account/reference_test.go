package account

// This file keeps a map-keyed anchor walker, and the two generators over
// it, as the reference the slot walker (walker.go) is tested against
// (differential_test.go): every memo keyed by node id or edge id strings,
// every neighbour list read through Successors / Predecessors, every edge
// taken in Edges order.

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/privilege"
)

// refGenerateHideForSet is GenerateHideForSet over Edges.
func refGenerateHideForSet(spec *Spec, hw []privilege.Predicate) (*Account, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hw, err := normalizeHW(spec, hw)
	if err != nil {
		return nil, err
	}
	// G' starts as a slot-preserving copy of G (see GenerateForSet) and
	// loses what the viewer may not see.
	g := spec.Graph
	ids := g.Nodes()
	edges := g.Edges()
	a := newAccount(g.Clone(), hw, 0)
	v := hwView{spec: spec, hw: hw}
	for _, id := range ids {
		if !v.nodeVisible(id) {
			a.Graph.RemoveNode(id)
			continue
		}
		a.ToOriginal[id] = id
		a.FromOriginal[id] = id
		a.InfoScore[id] = 1
	}
	for _, e := range edges {
		if !a.Present(e.From) || !a.Present(e.To) {
			continue // went with its endpoint
		}
		if v.mark(e.From, e.ID()) != policy.Visible || v.mark(e.To, e.ID()) != policy.Visible {
			a.Graph.RemoveEdge(e.From, e.To)
		}
	}
	return a, nil
}

// refGenerateForSet is GenerateForSet on the reference walker.
func refGenerateForSet(spec *Spec, hw []privilege.Predicate) (*Account, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hw, err := normalizeHW(spec, hw)
	if err != nil {
		return nil, err
	}
	// G' starts as a slot-preserving copy of G, sharing its order memo and
	// feature maps, and is cut down to the account in place below instead
	// of being rebuilt one node and edge at a time.
	g := spec.Graph
	ids := g.Nodes()
	a := newAccount(g.Clone(), hw, 0)
	v := hwView{spec: spec, hw: hw}

	// Algorithm 1 lines 4–10: node selection.
	var omitted, replaced []graph.NodeID
	for _, id := range ids {
		if v.nodeVisible(id) {
			a.ToOriginal[id] = id
			a.FromOriginal[id] = id
			a.InfoScore[id] = 1
			continue
		}
		s, ok := selectSurrogate(spec, id, hw)
		if !ok {
			omitted = append(omitted, id) // no releasable version exists
			continue
		}
		a.ToOriginal[s.ID] = id
		a.FromOriginal[id] = s.ID
		a.InfoScore[s.ID] = s.InfoScore
		a.SurrogateNodes[s.ID] = s
		replaced = append(replaced, id)
	}

	// Algorithm 3: classify edges by effective disposition. Show edges
	// (both incidences effectively Visible, hence both endpoints present)
	// stay where they are; every other edge goes. Then omitted nodes are
	// freed and each surrogate takes its original's slot, inheriting its
	// Show edges.
	w := &refWalker{view: v, acct: a}
	var contract []graph.EdgeID
	for _, e := range g.Edges() {
		switch w.disposition(e.ID()) {
		case policy.ShowEdge:
			continue
		case policy.ContractEdge:
			contract = append(contract, e.ID())
		}
		a.Graph.RemoveEdge(e.From, e.To)
	}
	for _, id := range omitted {
		a.Graph.RemoveNode(id)
	}
	for _, id := range replaced {
		s := a.SurrogateNodes[a.FromOriginal[id]]
		if err := a.Graph.ReplaceNode(id, graph.Node{ID: s.ID, Features: s.Features}); err != nil {
			return nil, err
		}
	}

	// Algorithm 1 lines 12–29: interpose surrogate edges between the
	// anchor pairs of contracted edges, followed — only when a Definition 8
	// condition 2 veto occurred — by the global completion sweep.
	for _, c := range contract {
		back, fwd := w.ends(c)
		if err := w.connect(back, fwd); err != nil {
			return nil, err
		}
	}
	if !w.vetoed {
		return a, nil
	}
	a.completed = true
	if err := w.completionSweep(); err != nil {
		return nil, err
	}
	return a, nil
}

// ends returns the anchor sets of a Hide-free edge: the nearest
// Visible-incidence nodes upstream and downstream (Algorithm 2's
// stop-at-first-visible walk, which realises the "no shorter HW-permitted
// path" minimality rule) — the endpoint itself where its own incidence on
// the edge is effectively Visible.
func (w *refWalker) ends(e graph.EdgeID) (back, fwd []graph.NodeID) {
	back, fwd = []graph.NodeID{e.From}, []graph.NodeID{e.To}
	if w.effectiveMark(e.From, e) != policy.Visible {
		back = w.walk(e.From, graph.Backward, crossed)
	}
	if w.effectiveMark(e.To, e) != policy.Visible {
		fwd = w.walk(e.To, graph.Forward, crossed)
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
func (w *refWalker) connect(back, fwd []graph.NodeID) error {
	spec, a := w.spec(), w.acct
	if w.tried == nil {
		w.tried = map[graph.EdgeID]bool{}
	}
	for _, u := range back {
		for _, vv := range fwd {
			pair := graph.EdgeID{From: u, To: vv}
			if u == vv || w.tried[pair] {
				continue
			}
			w.tried[pair] = true
			w.pairs++
			if _, ok := spec.Graph.EdgeByID(pair); ok {
				// Definition 8 condition 2: a pair with a direct edge
				// may only be connected when that edge's incidences
				// are both Visible — and then the edge is already in
				// G', so a surrogate edge is never interposed. A
				// non-Show direct edge vetoes the pair and may leave
				// longer permitted pairs unserved; the completion
				// sweep repairs exactly those.
				if w.disposition(pair) != policy.ShowEdge {
					w.vetoed = true
				}
				continue
			}
			gu, gv := a.FromOriginal[u], a.FromOriginal[vv]
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
func (w *refWalker) completionSweep() error {
	spec, a := w.spec(), w.acct
	origs := make([]graph.NodeID, 0, len(a.FromOriginal))
	for orig := range a.FromOriginal {
		origs = append(origs, orig)
	}
	sort.Slice(origs, func(i, j int) bool { return origs[i] < origs[j] })
	for _, u := range origs {
		permitted := w.permittedFrom(u)
		gu := a.FromOriginal[u]
		var missing []graph.NodeID
		reach := a.Graph.Reachable(gu, graph.Forward)
		for vv := range permitted {
			if vv == u || reach[a.FromOriginal[vv]] {
				continue
			}
			if de, ok := spec.Graph.EdgeByID(graph.EdgeID{From: u, To: vv}); ok && w.disposition(de.ID()) != policy.ShowEdge {
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

// refWalker evaluates effective markings and runs the Algorithm 2 anchor
// searches over one (view, account) pair.
type refWalker struct {
	view  hwView
	acct  *Account
	onAdd func(graph.Edge) // observes edges connect adds; may be nil

	memo  [2]map[graph.NodeID][]graph.NodeID // walk(n, dir, crossed), by dir
	tried map[graph.EdgeID]bool              // anchor pairs connect has examined

	walked, pairs int  // (node, state) visits by walk, pairs examined by connect
	vetoed        bool // connect met a Definition 8 condition 2 veto
}

func (w *refWalker) spec() *Spec { return w.view.spec }

// effectiveMark is the combined view marking with one safety adjustment: a
// Visible incidence of a node with no corresponding node in G' is
// downgraded to Surrogate. A node whose existence is not releasable cannot
// have edges shown, but the paths through it may still be summarised —
// this keeps inconsistent provider policies from silently destroying
// connectivity (see DESIGN.md).
func (w *refWalker) effectiveMark(n graph.NodeID, e graph.EdgeID) policy.Marking {
	m := w.view.mark(n, e)
	if m == policy.Visible && !w.acct.Present(n) {
		return policy.Surrogate
	}
	return m
}

// disposition combines effective marks (Algorithm 3).
func (w *refWalker) disposition(e graph.EdgeID) policy.Disposition {
	src := w.effectiveMark(e.From, e)
	dst := w.effectiveMark(e.To, e)
	switch {
	case src == policy.Hide || dst == policy.Hide:
		return policy.DropEdge
	case src == policy.Visible && dst == policy.Visible:
		return policy.ShowEdge
	default:
		return policy.ContractEdge
	}
}

// permittedFrom returns the set of nodes w (present in G', w != u) for
// which an HW-permitted path u -> ... -> w exists per Definition 8
// condition 1: no Hide incidence anywhere, the first incidence at u and the
// last incidence at w effectively Visible. Condition 2 (the direct-edge
// restriction) is per pair and applied by callers.
func (w *refWalker) permittedFrom(u graph.NodeID) map[graph.NodeID]bool {
	out := map[graph.NodeID]bool{}
	seen := map[graph.NodeID]bool{u: true}
	queue := []graph.NodeID{u}
	first := true
	for len(queue) > 0 {
		var next []graph.NodeID
		for _, cur := range queue {
			for _, succ := range w.spec().Graph.Successors(cur) {
				e := graph.EdgeID{From: cur, To: succ}
				if w.view.mark(e.From, e) == policy.Hide || w.view.mark(e.To, e) == policy.Hide {
					continue
				}
				// Leaving the start requires a Visible first incidence;
				// re-entering u later makes it an interior node, where any
				// non-Hide marking may be crossed.
				if first && w.effectiveMark(u, e) != policy.Visible {
					continue
				}
				if succ != u && w.effectiveMark(succ, e) == policy.Visible {
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

// walk runs the Algorithm 2 anchor search (BuildVisibleSet) from start in
// the given direction across Hide-free edges, in one of two states per
// node. Crossed: collect the nearest nodes whose incidence on the edge
// reaching them is effectively Visible; the walk stops at each such anchor
// and walks through every other node. Approaching: follow only edges the
// current node's own incidence on is non-Visible (any such edge is a
// contract edge), either staying before the contract edge or taking this
// edge as it. So walk(n, dir, crossed) is the anchor set of a contract edge
// ending at n, memoised per (node, direction), and walk(n, dir,
// approaching) the anchors beyond every contract edge a chain from n
// reaches. Results are sorted for determinism.
func (w *refWalker) walk(start graph.NodeID, dir graph.Direction, from int) []graph.NodeID {
	if got, ok := w.memo[dir][start]; ok && from == crossed {
		return got
	}
	type at struct {
		n     graph.NodeID
		state int
	}
	var seen [2]map[graph.NodeID]bool // by state; a walk never goes back to approaching
	for s := from; s <= crossed; s++ {
		seen[s] = map[graph.NodeID]bool{}
	}
	seen[from][start] = true
	queue := []at{{start, from}}
	found := map[graph.NodeID]bool{}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		var steps []graph.NodeID
		if dir == graph.Forward {
			steps = w.spec().Graph.Successors(cur.n)
		} else {
			steps = w.spec().Graph.Predecessors(cur.n)
		}
		for _, next := range steps {
			e := graph.EdgeID{From: cur.n, To: next}
			if dir == graph.Backward {
				e = graph.EdgeID{From: next, To: cur.n}
			}
			// The walk may not cross Hide incidences at either end.
			if w.view.mark(e.From, e) == policy.Hide || w.view.mark(e.To, e) == policy.Hide {
				continue
			}
			// Over e, next is reached before the contract edge (when
			// approaching) and beyond it (unless an anchor: stop there).
			first, last := crossed, crossed
			if cur.state == approaching {
				if w.effectiveMark(cur.n, e) == policy.Visible {
					continue // the chain does not leave cur over e
				}
				first = approaching
			}
			if w.effectiveMark(next, e) == policy.Visible {
				found[next] = true
				last = approaching
			}
			for s := first; s <= last; s++ {
				if !seen[s][next] {
					seen[s][next] = true
					queue = append(queue, at{next, s})
				}
			}
		}
	}
	w.walked += len(queue)
	out := make([]graph.NodeID, 0, len(found))
	for id := range found {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if from == crossed {
		if w.memo[dir] == nil {
			w.memo[dir] = map[graph.NodeID][]graph.NodeID{}
		}
		w.memo[dir][start] = out
	}
	return out
}

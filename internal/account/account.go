// Package account implements protected accounts (Definition 5) and the
// Surrogate Generation Algorithm (paper Appendix B, Algorithms 1–3): given
// an original graph G, a privilege labeling, incidence markings and a
// surrogate registry, it produces the maximally informative protected
// account G' for a target high-water set (Definition 6) — most commonly a
// singleton {p}, the case the paper's presentation uses.
//
// Two generators are provided: Generate/GenerateForSet, the paper's
// contribution, and GenerateHide/GenerateHideForSet, the naïve
// all-or-nothing baseline of Figure 1c that the evaluation compares
// against.
package account

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// Spec bundles everything needed to protect a graph: the original graph,
// the lowest() labeling of its objects, the incidence-marking policy, and
// the provider-supplied surrogates.
type Spec struct {
	Graph      *graph.Graph
	Labeling   *privilege.Labeling
	Policy     *policy.Policy
	Surrogates *surrogate.Registry
}

// Validate reports structural problems in the spec.
func (s *Spec) Validate() error {
	if s.Graph == nil {
		return fmt.Errorf("account: spec has nil graph")
	}
	if s.Labeling == nil {
		return fmt.Errorf("account: spec has nil labeling")
	}
	if s.Policy == nil {
		return fmt.Errorf("account: spec has nil policy")
	}
	if s.Surrogates == nil {
		return fmt.Errorf("account: spec has nil surrogate registry")
	}
	if s.Labeling.Lattice() != s.Policy.Lattice() {
		return fmt.Errorf("account: labeling and policy use different lattices")
	}
	return nil
}

// Account is a protected account G' of an original graph G, together with
// the node correspondence of Definition 4/5 and the bookkeeping the
// measures need.
type Account struct {
	// Graph is G'.
	Graph *graph.Graph
	// HighWater is the target high-water set the account was built for:
	// every object in the account is visible via some member.
	HighWater []privilege.Predicate
	// Target is the single member for accounts generated with a singleton
	// high-water set (the common case); empty otherwise.
	Target privilege.Predicate
	// ToOriginal maps each G' node to the unique G node it corresponds to.
	ToOriginal map[graph.NodeID]graph.NodeID
	// FromOriginal is the inverse map; G nodes with no corresponding node
	// are absent.
	FromOriginal map[graph.NodeID]graph.NodeID
	// InfoScore holds infoScore(n') for every node of G' (1 when n' = n).
	InfoScore map[graph.NodeID]float64
	// SurrogateNodes records which G' nodes are surrogates (not originals).
	SurrogateNodes map[graph.NodeID]surrogate.Surrogate
	// SurrogateEdges records which G' edges are interposed surrogate edges
	// summarising HW-permitted paths rather than copies of G edges.
	SurrogateEdges map[graph.EdgeID]bool

	// completed records that the generation run needed the global
	// completion sweep (a Definition 8 condition 2 veto occurred). Its
	// edge set is order-sensitive, so incremental maintenance refuses to
	// patch such accounts and regenerates instead.
	completed bool
}

// Present reports whether original node n has a corresponding node in the
// account.
func (a *Account) Present(n graph.NodeID) bool {
	_, ok := a.FromOriginal[n]
	return ok
}

// Corresponding returns the G' node corresponding to original n.
func (a *Account) Corresponding(n graph.NodeID) (graph.NodeID, bool) {
	id, ok := a.FromOriginal[n]
	return id, ok
}

// SurrogateEdgeLabel is attached to interposed surrogate edges in G'.
const SurrogateEdgeLabel = "surrogate"

// hwView evaluates visibility and combined incidence markings under a
// high-water set. For a singleton set this degenerates to the plain
// per-predicate policy. For larger sets the combination follows
// Definition 8: an incidence counts as Visible when some member's mark is
// Visible ("marked Visible for some p dominated by a member of HW"),
// counts as Hide when any member's mark is Hide (protecting beats
// informing), and otherwise as Surrogate.
type hwView struct {
	spec *Spec
	hw   []privilege.Predicate
}

// nodeVisible reports whether some member of the high-water set dominates
// lowest(n) (Definition 9, maximal node visibility).
func (v hwView) nodeVisible(n graph.NodeID) bool {
	for _, p := range v.hw {
		if v.spec.Labeling.NodeVisible(n, p) {
			return true
		}
	}
	return false
}

// mark is the combined marking of one incidence across the set.
func (v hwView) mark(n graph.NodeID, e graph.EdgeID) policy.Marking {
	if len(v.hw) == 1 {
		return v.spec.Policy.Mark(n, e, v.hw[0])
	}
	anyVisible, anySurrogate := false, false
	for _, p := range v.hw {
		switch v.spec.Policy.Mark(n, e, p) {
		case policy.Hide:
			return policy.Hide
		case policy.Visible:
			anyVisible = true
		case policy.Surrogate:
			anySurrogate = true
		}
	}
	switch {
	case anyVisible:
		return policy.Visible
	case anySurrogate:
		return policy.Surrogate
	default:
		return policy.Visible
	}
}

func normalizeHW(spec *Spec, hw []privilege.Predicate) ([]privilege.Predicate, error) {
	if len(hw) == 0 {
		return nil, fmt.Errorf("account: empty high-water set")
	}
	lat := spec.Labeling.Lattice()
	for _, p := range hw {
		if !lat.Known(p) && p != privilege.Public {
			return nil, fmt.Errorf("account: unknown predicate %q in high-water set", p)
		}
	}
	// Definition 6 requires an antichain; reduce dominated members away so
	// callers may pass any set.
	return lat.Maximal(hw), nil
}

// GenerateHide produces the naïve all-or-nothing protected account
// (Figure 1c) for a singleton high-water set {p}: only nodes visible via p
// are kept (as themselves), and an edge is kept only when both endpoints
// are kept and both of its incidence markings are Visible. No surrogates
// of any kind are used.
func GenerateHide(spec *Spec, p privilege.Predicate) (*Account, error) {
	return GenerateHideForSet(spec, []privilege.Predicate{p})
}

// GenerateHideForSet is GenerateHide for a general high-water set.
func GenerateHideForSet(spec *Spec, hw []privilege.Predicate) (*Account, error) {
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
	a := newAccount(g.Clone(), hw)
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

// Generate runs the Surrogate Generation Algorithm for the singleton
// high-water set {p} and returns a maximally informative protected account
// (Definition 9):
//
//   - maximal node visibility: originals visible via p appear as
//     themselves;
//   - dominant surrogacy: other nodes appear as their most dominant
//     applicable surrogate (surrogate.Registry.Select), or are omitted;
//   - maximal connectivity: every HW-permitted path between nodes present
//     in G' is reflected by a path in G', interposing surrogate edges
//     computed by contracting chains of Surrogate-marked incidences
//     (Algorithms 2 and 3).
func Generate(spec *Spec, p privilege.Predicate) (*Account, error) {
	return GenerateForSet(spec, []privilege.Predicate{p})
}

// GenerateForSet runs the Surrogate Generation Algorithm for a general
// high-water set (Appendix B: "when there are multiple
// privilege-predicates, the same process is used for each predicate until
// an appropriate surrogate is found"). The set is reduced to its maximal
// antichain first; an object is visible when some member dominates its
// lowest predicate, and incidence markings combine per Definition 8 (see
// hwView).
func GenerateForSet(spec *Spec, hw []privilege.Predicate) (*Account, error) {
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
	a := newAccount(g.Clone(), hw)
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
	w := &walker{view: v, acct: a}
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
func (w *walker) ends(e graph.EdgeID) (back, fwd []graph.NodeID) {
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
func (w *walker) connect(back, fwd []graph.NodeID) error {
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
func (w *walker) completionSweep() error {
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

// selectSurrogate is the surrogate selection of Algorithm 1 for one hidden
// node of the spec graph, shared by generation and maintenance: the most
// dominant applicable surrogate under hw, where a surrogate whose id names
// a node of G is not applicable. In G' such a surrogate would stand where
// that node stands, merging the two.
func selectSurrogate(spec *Spec, id graph.NodeID, hw []privilege.Predicate) (surrogate.Surrogate, bool) {
	return spec.Surrogates.SelectForSet(id, hw, spec.Graph.HasNode)
}

func newAccount(g *graph.Graph, hw []privilege.Predicate) *Account {
	a := &Account{
		Graph:          g,
		HighWater:      hw,
		ToOriginal:     map[graph.NodeID]graph.NodeID{},
		FromOriginal:   map[graph.NodeID]graph.NodeID{},
		InfoScore:      map[graph.NodeID]float64{},
		SurrogateNodes: map[graph.NodeID]surrogate.Surrogate{},
		SurrogateEdges: map[graph.EdgeID]bool{},
	}
	if len(hw) == 1 {
		a.Target = hw[0]
	}
	return a
}

// walker evaluates effective markings and runs the Algorithm 2 anchor
// searches over one (view, account) pair.
type walker struct {
	view  hwView
	acct  *Account
	onAdd func(graph.Edge) // observes edges connect adds; may be nil

	memo  [2]map[graph.NodeID][]graph.NodeID // walk(n, dir, crossed), by dir
	tried map[graph.EdgeID]bool              // anchor pairs connect has examined

	walked, pairs int  // (node, state) visits by walk, pairs examined by connect
	vetoed        bool // connect met a Definition 8 condition 2 veto
}

func (w *walker) spec() *Spec { return w.view.spec }

// effectiveMark is the combined view marking with one safety adjustment: a
// Visible incidence of a node with no corresponding node in G' is
// downgraded to Surrogate. A node whose existence is not releasable cannot
// have edges shown, but the paths through it may still be summarised —
// this keeps inconsistent provider policies from silently destroying
// connectivity (see DESIGN.md).
func (w *walker) effectiveMark(n graph.NodeID, e graph.EdgeID) policy.Marking {
	m := w.view.mark(n, e)
	if m == policy.Visible && !w.acct.Present(n) {
		return policy.Surrogate
	}
	return m
}

// disposition combines effective marks (Algorithm 3).
func (w *walker) disposition(e graph.EdgeID) policy.Disposition {
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
func (w *walker) permittedFrom(u graph.NodeID) map[graph.NodeID]bool {
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

// The two states of an anchor walk at a node.
const (
	approaching = iota // on a chain leading up to a contract edge
	crossed            // the contract edge lies behind
)

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
func (w *walker) walk(start graph.NodeID, dir graph.Direction, from int) []graph.NodeID {
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
				e = e.Reverse()
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

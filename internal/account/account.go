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
	a := newAccount(g.Clone(), hw, g.NumNodes())
	v := hwView{spec: spec, hw: hw}
	for n := range g.SortedNodes() {
		id := n.ID
		if !v.nodeVisible(id) {
			a.Graph.RemoveNode(id)
			continue
		}
		a.ToOriginal[id] = id
		a.FromOriginal[id] = id
		a.InfoScore[id] = 1
	}
	for f := range int32(g.NumSlots()) {
		from := g.SlotID(f)
		if !a.Present(from) {
			continue // went with its endpoint (or a free slot)
		}
		for _, t := range g.OutSlots(f) {
			to := g.SlotID(t)
			if !a.Present(to) {
				continue
			}
			e := graph.EdgeID{From: from, To: to}
			if v.mark(from, e) != policy.Visible || v.mark(to, e) != policy.Visible {
				a.Graph.RemoveEdge(from, to)
			}
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
	a := newAccount(g.Clone(), hw, g.NumNodes())
	v := hwView{spec: spec, hw: hw}

	// Algorithm 1 lines 4–10: node selection.
	var omitted, replaced []graph.NodeID
	for n := range g.SortedNodes() {
		id := n.ID
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
	// Show edges. Which pairs the contract edges yield does not depend on
	// the order they are taken in, so they come in slot order. Each edge's
	// marks are read once here, past the walker's memo, which so holds only
	// the edges the anchor walks reach.
	w := newWalker(v, a)
	var contract [][2]int32
	for f := range int32(g.NumSlots()) {
		for _, t := range g.OutSlots(f) {
			switch w.dispose(f, t, w.resolve(f, t)) {
			case policy.ShowEdge:
				continue
			case policy.ContractEdge:
				contract = append(contract, [2]int32{f, t})
			}
			a.Graph.RemoveEdge(g.SlotID(f), g.SlotID(t))
		}
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
		back, fwd := w.ends(c[0], c[1])
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

// selectSurrogate is the surrogate selection of Algorithm 1 for one hidden
// node of the spec graph, shared by generation and maintenance: the most
// dominant applicable surrogate under hw, where a surrogate whose id names
// a node of G is not applicable. In G' such a surrogate would stand where
// that node stands, merging the two.
func selectSurrogate(spec *Spec, id graph.NodeID, hw []privilege.Predicate) (surrogate.Surrogate, bool) {
	return spec.Surrogates.SelectForSet(id, hw, spec.Graph.HasNode)
}

// newAccount returns an empty account over G' with its node maps sized
// for n nodes.
func newAccount(g *graph.Graph, hw []privilege.Predicate, n int) *Account {
	a := &Account{
		Graph:          g,
		HighWater:      hw,
		ToOriginal:     make(map[graph.NodeID]graph.NodeID, n),
		FromOriginal:   make(map[graph.NodeID]graph.NodeID, n),
		InfoScore:      make(map[graph.NodeID]float64, n),
		SurrogateNodes: map[graph.NodeID]surrogate.Surrogate{},
		SurrogateEdges: map[graph.EdgeID]bool{},
	}
	if len(hw) == 1 {
		a.Target = hw[0]
	}
	return a
}

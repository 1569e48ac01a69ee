package plusql

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
)

// View is the viewer-protected face a query executes against: the
// protected account of one storage snapshot for one viewer, plus the
// indexes the planner pushes predicates into. Everything a query can bind
// is a node or edge of this account, so results are policy-safe by
// construction — a hidden original simply is not here, and a surrogated
// original appears only as its surrogate.
//
// A View is built once per (viewer, mode) by NewView and then moved from
// revision to revision in place by Advance. Any number of queries may read
// one view concurrently (every exported method but Advance is safe for
// that); Advance needs the view to itself, which the Engine arranges with
// a read-write lock per view.
type View struct {
	rev    uint64
	viewer privilege.Predicate
	mode   plus.Mode

	acct *account.Account

	nodes  []graph.NodeID            // all account nodes, sorted
	byKind map[string][]graph.NodeID // "kind" feature -> sorted nodes
	// byName and byAttr are the view-level secondary indexes: "name"
	// feature -> sorted nodes, and (attr key, attr value) pair -> sorted
	// nodes. Unnamed nodes, empty attr values and the
	// reserved kind/name keys are not posted (the planner never uses the
	// indexes for those probes), keeping index-served enumeration
	// byte-identical to a sorted scan-and-filter.
	byName map[string][]graph.NodeID
	byAttr map[attr][]graph.NodeID
	out    map[graph.NodeID][]Neighbor // adjacency, sorted by neighbour
	in     map[graph.NodeID][]Neighbor
	edges  int

	// mu guards the closure memos, which concurrent readers fill.
	mu        sync.Mutex
	fwdReach  map[graph.NodeID][]graph.NodeID
	backReach map[graph.NodeID][]graph.NodeID

	// spec is the account's generation spec, retained so the view can be
	// advanced by a change-feed delta instead of rebuilt from a snapshot.
	// It roughly doubles a cached view's footprint — the price of
	// incremental maintenance.
	spec *account.Spec
}

// Neighbor is one adjacency entry of a view node.
type Neighbor struct {
	To    graph.NodeID // the far endpoint
	Label string
}

// NewView materialises the protected account of a snapshot for a viewer.
// mode selects the account generator: plus.ModeSurrogate (default) runs
// the Surrogate Generation Algorithm, plus.ModeHide the all-or-nothing
// baseline.
func NewView(sn *plus.Snapshot, lattice *privilege.Lattice, viewer privilege.Predicate, mode plus.Mode) (*View, error) {
	if viewer == "" {
		viewer = privilege.Public
	}
	if mode == "" {
		mode = plus.ModeSurrogate
	}
	if !lattice.Known(viewer) {
		return nil, fmt.Errorf("plusql: unknown viewer predicate %q", viewer)
	}
	spec, err := plus.SpecFromSnapshot(sn, lattice)
	if err != nil {
		return nil, err
	}
	var acct *account.Account
	switch mode {
	case plus.ModeSurrogate:
		acct, err = account.Generate(spec, viewer)
	case plus.ModeHide:
		acct, err = account.GenerateHide(spec, viewer)
	default:
		err = fmt.Errorf("plusql: unknown mode %q", mode)
	}
	if err != nil {
		return nil, err
	}

	v := &View{
		rev:    sn.Revision(),
		viewer: viewer,
		mode:   mode,
		acct:   acct,
		spec:   spec,
	}
	v.index()
	return v, nil
}

// index (re)builds the scan indexes from the account graph.
func (v *View) index() {
	acct := v.acct
	v.byKind = map[string][]graph.NodeID{}
	v.out = map[graph.NodeID][]Neighbor{}
	v.in = map[graph.NodeID][]Neighbor{}
	v.fwdReach = map[graph.NodeID][]graph.NodeID{}
	v.backReach = map[graph.NodeID][]graph.NodeID{}
	v.edges = 0
	v.byName = map[string][]graph.NodeID{}
	v.byAttr = map[attr][]graph.NodeID{}
	v.nodes = acct.Graph.Nodes() // sorted, so every posting list is sorted
	for _, id := range v.nodes {
		n, _ := acct.Graph.NodeByID(id)
		if k := n.Features["kind"]; k != "" {
			v.byKind[k] = append(v.byKind[k], id)
		}
		if name := n.Features["name"]; name != "" {
			v.byName[name] = append(v.byName[name], id)
		}
		for _, p := range attrPairs(n.Features) {
			v.byAttr[p] = append(v.byAttr[p], id)
		}
	}
	for _, e := range acct.Graph.Edges() { // sorted by (From, To)
		v.out[e.From] = append(v.out[e.From], Neighbor{To: e.To, Label: e.Label})
		v.in[e.To] = append(v.in[e.To], Neighbor{To: e.From, Label: e.Label})
		v.edges++
	}
	for id := range v.in {
		es := v.in[id]
		sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	}
}

// Revision reports the snapshot revision the view stands at.
func (v *View) Revision() uint64 { return v.rev }

// Viewer reports the privilege-predicate the view protects for.
func (v *View) Viewer() privilege.Predicate { return v.viewer }

// Account exposes the underlying protected account (read-only).
func (v *View) Account() *account.Account { return v.acct }

// NumNodes reports how many nodes the viewer may see.
func (v *View) NumNodes() int { return len(v.nodes) }

// NumEdges reports how many edges the viewer may see.
func (v *View) NumEdges() int { return v.edges }

// Nodes returns all visible nodes in sorted order. Callers must not
// mutate the returned slice.
func (v *View) Nodes() []graph.NodeID { return v.nodes }

// NodesByKind returns the visible nodes whose "kind" feature equals k,
// sorted. Callers must not mutate the returned slice.
func (v *View) NodesByKind(k string) []graph.NodeID { return v.byKind[k] }

// attr is one (feature key, feature value) pair: the key of the attr
// postings.
type attr struct{ key, value string }

// attrPairs maps a node's feature set to its secondary-index keys:
// one (key, value) pair per feature, skipping the reserved
// kind/name keys (they have their own indexes) and empty values (the
// planner routes empty-constant probes to scans, because an absent key
// also matches an empty constant under map-lookup semantics).
func attrPairs(f graph.Features) []attr {
	var out []attr
	for k, val := range f {
		if k == "kind" || k == "name" || val == "" {
			continue
		}
		out = append(out, attr{k, val})
	}
	return out
}

// NodesByName returns the visible nodes whose "name" feature equals the
// non-empty name, sorted. Callers must not mutate the returned slice.
func (v *View) NodesByName(name string) []graph.NodeID { return v.byName[name] }

// NameCount reports how many visible nodes carry the name feature.
func (v *View) NameCount(name string) int { return len(v.NodesByName(name)) }

// NodesByAttr returns the visible nodes whose feature map contains the
// (non-empty) pair key=value, sorted. The reserved keys "kind" and
// "name" route to their dedicated indexes. Callers must not mutate the
// returned slice.
func (v *View) NodesByAttr(key, value string) []graph.NodeID {
	switch key {
	case "kind":
		return v.byKind[value]
	case "name":
		return v.NodesByName(value)
	}
	return v.byAttr[attr{key, value}]
}

// AttrCount reports how many visible nodes carry the feature pair.
func (v *View) AttrCount(key, value string) int { return len(v.NodesByAttr(key, value)) }

// Has reports whether id is a visible node.
func (v *View) Has(id graph.NodeID) bool { return v.acct.Graph.HasNode(id) }

// Features returns a visible node's features (nil for unknown ids).
// Surrogate nodes expose only the provider-released surrogate features.
func (v *View) Features(id graph.NodeID) graph.Features {
	n, ok := v.acct.Graph.NodeByID(id)
	if !ok {
		return nil
	}
	return n.Features
}

// IsSurrogate reports whether a visible node is a surrogate.
func (v *View) IsSurrogate(id graph.NodeID) bool {
	_, ok := v.acct.SurrogateNodes[id]
	return ok
}

// Out returns id's outgoing (to, label) pairs sorted by neighbour.
func (v *View) Out(id graph.NodeID) []Neighbor { return v.out[id] }

// In returns id's incoming (from, label) pairs sorted by neighbour.
func (v *View) In(id graph.NodeID) []Neighbor { return v.in[id] }

// HasEdge reports a direct visible edge from -> to and its label.
func (v *View) HasEdge(from, to graph.NodeID) (string, bool) {
	e, ok := v.acct.Graph.EdgeByID(graph.EdgeID{From: from, To: to})
	if !ok {
		return "", false
	}
	return e.Label, true
}

// Reach returns the nodes reachable from id over 1+ visible hops in the
// given direction (graph.Forward for descendants, graph.Backward for
// ancestors), sorted, excluding id itself. Closures are memoised on the
// view, so repeated transitive atoms over hot nodes are index lookups.
func (v *View) Reach(id graph.NodeID, dir graph.Direction) []graph.NodeID {
	memo := v.fwdReach
	if dir == graph.Backward {
		memo = v.backReach
	}
	v.mu.Lock()
	got, ok := memo[id]
	v.mu.Unlock()
	if ok {
		return got
	}
	set := v.acct.Graph.Reachable(id, dir)
	out := make([]graph.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	v.mu.Lock()
	memo[id] = out
	v.mu.Unlock()
	return out
}

// Incremental protected-account maintenance. A generated account is a
// derived structure over its Spec; when the spec advances by a delta
// (records are append-only upstream: objects stored or replaced, edges and
// surrogates added), Maintain connects exactly the anchor pairs the
// delta's new edges create, from those edges alone, and leaves the rest of
// the account as it is.
//
// An anchor pair (x, y) is witnessed by a Hide-free path x = p0 -> ... ->
// pk = y carrying one contract edge c = (pi -> pi+1): x's incidence on the
// first edge and y's on the last are effectively Visible, every p1..pi has
// a non-Visible incidence on the path edge leaving it and every
// pi+1..pk-1 on the path edge entering it (the two walks of walker.ends).
// Under an effect-additive delta the pair set only grows, and a new pair's
// witness crosses some new edge e = (a -> b) in one of three positions; on
// the advanced spec, with (back, fwd) = walker.ends(e) and through(n, dir)
// = walker.walk(n, dir, approaching), the new pairs lie in
//
//	back × fwd                   e is c (only if e is a contract edge)
//	back × through(b, Forward)   e comes before c
//	through(a, Backward) × fwd   e comes after c
//
// and each of those is a pair of the advanced spec, so putting every one
// through walker.connect, the per-pair step generation uses, is exact.
// Whatever cannot be localised regenerates: a replaced object changed its
// protection, a hidden node's surrogate selection moved, or a Definition 8
// condition 2 veto demands the global completion sweep. The patched account
// is identical to one generated from scratch at the same spec; the parity
// tests assert exactly that, and VerifySound/VerifyMaximal hold on it
// wherever they hold on the scratch account.

package account

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/privilege"
)

// Delta describes, in account terms, how a Spec advanced: which graph
// nodes are new, which were replaced in place, which edges and surrogate
// registrations were added. Upstream layers translate their storage change
// feed into this form (see plus.ClassifyDelta).
type Delta struct {
	// NewNodes are graph nodes absent before the delta.
	NewNodes []graph.NodeID
	// UpdatedNodes are pre-existing nodes whose record was replaced
	// (features, labeling or protection may have changed).
	UpdatedNodes []graph.NodeID
	// NewEdges are edges added by the delta. Edges are never replaced.
	NewEdges []graph.EdgeID
	// SurrogateFor lists originals that gained a surrogate registration.
	SurrogateFor []graph.NodeID
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool {
	return len(d.NewNodes) == 0 && len(d.UpdatedNodes) == 0 &&
		len(d.NewEdges) == 0 && len(d.SurrogateFor) == 0
}

// nodeProtection is the protection-relevant state of one node: its
// lowest() label and its node-level policy threshold.
type nodeProtection struct {
	lowest   privilege.Predicate
	thrAt    privilege.Predicate
	thrBelow policy.Marking
	hasThr   bool
}

// PreState captures the protection-relevant state of a delta's updated
// nodes before the spec is mutated; Maintain compares it against the
// advanced spec to decide whether the delta is purely additive.
type PreState struct {
	nodes map[graph.NodeID]nodeProtection
}

// Capture records the pre-mutation protection state of the delta's
// updated nodes. Call it on the old spec, before applying the delta.
func Capture(spec *Spec, d Delta) *PreState {
	ps := &PreState{nodes: make(map[graph.NodeID]nodeProtection, len(d.UpdatedNodes))}
	for _, u := range d.UpdatedNodes {
		if _, ok := ps.nodes[u]; ok {
			continue
		}
		np := nodeProtection{lowest: spec.Labeling.LowestNode(u)}
		np.thrAt, np.thrBelow, np.hasThr = spec.Policy.NodeThreshold(u)
		ps.nodes[u] = np
	}
	return ps
}

// RebuildCause classifies why a maintenance pass regenerated the account.
// Unlike MaintainStats.Reason it never names a node, so it is safe as a
// metrics label.
type RebuildCause string

const (
	CauseLowestChange    RebuildCause = "lowest_change"
	CauseThresholdChange RebuildCause = "threshold_change"
	CauseSurrogateChange RebuildCause = "surrogate_change"
	CauseSweepVeto       RebuildCause = "sweep_veto"
	CauseNoPreState      RebuildCause = "no_pre_state"
)

// MaintainStats reports what one maintenance pass did; the view layer uses
// the added/updated/removed sets to patch its indexes in place.
type MaintainStats struct {
	// Rebuilt reports that the account was regenerated from scratch
	// because the delta could not be localised; Reason says why (and may
	// name the node), Cause is its class.
	Rebuilt bool
	Reason  string
	Cause   RebuildCause
	// Walked counts the (node, state) visits of the pass's anchor walks,
	// Pairs the candidate anchor pairs it examined: its cost, in steps.
	Walked, Pairs int
	// AddedNodes are the ids of account (G') nodes the pass created.
	// UpdatedNodes and RemovedNodes are the account nodes it replaced or
	// deleted, AS THEY WERE before the pass (the patched account no longer
	// holds their old features, which index maintenance needs).
	AddedNodes   []graph.NodeID
	UpdatedNodes []graph.Node
	RemovedNodes []graph.Node
	// AddedEdges / RemovedEdges are account (G') edges.
	AddedEdges   []graph.Edge
	RemovedEdges []graph.EdgeID
}

// Maintain advances an account produced by Generate/GenerateForSet (in
// this process) to the account GenerateForSet(spec, hw) would produce,
// where spec is the ALREADY-ADVANCED spec and pre the Capture taken before
// advancing it. The incremental path patches a IN PLACE and returns it,
// so the caller must own a exclusively (no concurrent readers); the
// fallback path returns a freshly generated account. Either way only the
// returned account may be used afterwards — on error, neither. The result
// is structurally identical to a from-scratch generation at the same spec.
//
// The incremental path applies when the delta is effect-additive: no
// pre-existing node changed its visibility, node-level protection or
// surrogate selection. Then no account node or edge ever disappears, old
// anchor walks keep their results, and every new anchor pair's witness
// crosses a new edge (see the file comment) — so the pass costs its new
// edges' walks plus the candidate pairs they yield, whatever the size of
// the restricted region around them. Other deltas regenerate.
func Maintain(a *Account, spec *Spec, d Delta, pre *PreState) (*Account, MaintainStats, error) {
	if d.Empty() {
		return a, MaintainStats{}, nil
	}
	rebuild := func(cause RebuildCause, reason string) (*Account, MaintainStats, error) {
		a2, err := GenerateForSet(spec, a.HighWater)
		return a2, MaintainStats{Rebuilt: true, Reason: reason, Cause: cause}, err
	}
	if a.completed {
		// Completion-sweep edge sets are order-sensitive; patching one
		// incrementally cannot guarantee parity with a scratch build.
		return rebuild(CauseSweepVeto, "account was built with the completion sweep")
	}
	v := viewOf(spec, a)

	newSet := make(map[graph.NodeID]bool, len(d.NewNodes))
	for _, u := range d.NewNodes {
		newSet[u] = true
	}

	// Hazard checks: a pre-existing node whose protection-relevant state
	// changed invalidates walks and mappings arbitrarily far away.
	if pre == nil {
		return rebuild(CauseNoPreState, "no pre-state captured")
	}
	for _, u := range d.UpdatedNodes {
		st, ok := pre.nodes[u]
		if !ok {
			return rebuild(CauseNoPreState, fmt.Sprintf("no pre-state for updated node %s", u))
		}
		if spec.Labeling.LowestNode(u) != st.lowest {
			return rebuild(CauseLowestChange, fmt.Sprintf("node %s changed its lowest predicate", u))
		}
		at, below, has := spec.Policy.NodeThreshold(u)
		if has != st.hasThr || at != st.thrAt || below != st.thrBelow {
			return rebuild(CauseThresholdChange, fmt.Sprintf("node %s changed its protection threshold", u))
		}
	}
	for _, u := range d.NewNodes {
		if orig, ok := a.ToOriginal[u]; ok && orig != u {
			// u is the id of orig's surrogate, which is not applicable
			// once u names a node of G (selectSurrogate).
			return rebuild(CauseSurrogateChange, fmt.Sprintf("new node %s is the id of %s's surrogate", u, orig))
		}
	}
	for _, u := range d.SurrogateFor {
		if newSet[u] {
			continue // handled by node addition below
		}
		mapped, present := a.FromOriginal[u]
		if present && mapped == u {
			continue // visible as itself; surrogates are irrelevant
		}
		s, ok := selectSurrogate(spec, u, v.hw)
		switch {
		case !present && ok:
			return rebuild(CauseSurrogateChange, fmt.Sprintf("hidden node %s gained a releasable surrogate", u))
		case present && (!ok || s.ID != mapped):
			return rebuild(CauseSurrogateChange, fmt.Sprintf("node %s changed its surrogate selection", u))
		}
	}

	var st MaintainStats

	// Patch nodes. Updated nodes keep their mapping (no hazard); visible
	// ones refresh their released features. New nodes run the Algorithm 1
	// node-selection rule.
	for _, u := range sortedIDs(d.UpdatedNodes) {
		if gid, ok := a.FromOriginal[u]; ok && gid == u {
			old, _ := a.Graph.NodeByID(u)
			n, _ := spec.Graph.NodeByID(u)
			a.Graph.AddNode(n)
			st.UpdatedNodes = append(st.UpdatedNodes, old)
		}
	}
	for _, u := range sortedIDs(d.NewNodes) {
		if v.nodeVisible(u) {
			n, _ := spec.Graph.NodeByID(u)
			a.Graph.AddNode(n)
			a.ToOriginal[u] = u
			a.FromOriginal[u] = u
			a.InfoScore[u] = 1
			st.AddedNodes = append(st.AddedNodes, u)
			continue
		}
		if s, ok := selectSurrogate(spec, u, v.hw); ok {
			a.Graph.AddNode(graph.Node{ID: s.ID, Features: s.Features})
			a.ToOriginal[s.ID] = u
			a.FromOriginal[u] = s.ID
			a.InfoScore[s.ID] = s.InfoScore
			a.SurrogateNodes[s.ID] = s
			st.AddedNodes = append(st.AddedNodes, s.ID)
		}
	}

	// Connect the pairs the delta's new edges create. Walks run on the
	// advanced spec, so one pass sees every new edge whatever the order.
	w := newWalker(v, a)
	w.onAdd = func(ge graph.Edge) { st.AddedEdges = append(st.AddedEdges, ge) }
	for _, id := range d.NewEdges {
		e, ok := spec.Graph.EdgeByID(id)
		if !ok {
			continue
		}
		f, _ := spec.Graph.Slot(id.From)
		t, _ := spec.Graph.Slot(id.To)
		disp := w.disposition(f, t)
		gu, gv := a.FromOriginal[e.From], a.FromOriginal[e.To]
		if gid := (graph.EdgeID{From: gu, To: gv}); a.SurrogateEdges[gid] {
			if disp != policy.ShowEdge {
				// The endpoints are an anchor pair (pairs only grow) and
				// the provider just restricted their direct edge.
				return rebuild(CauseSweepVeto, "restricted direct edge between a connected anchor pair")
			}
			// A pair previously served by an interposed surrogate edge
			// now has a direct Show edge; the scratch build copies the
			// direct edge instead.
			a.Graph.RemoveEdge(gu, gv)
			delete(a.SurrogateEdges, gid)
			st.RemovedEdges = append(st.RemovedEdges, gid)
		}
		if disp == policy.DropEdge {
			continue // no walk crosses a Hide
		}
		if disp == policy.ShowEdge && !a.Graph.HasEdge(gu, gv) {
			ge := graph.Edge{From: gu, To: gv, Label: e.Label}
			if err := a.Graph.AddEdge(ge); err != nil {
				panic(err) // endpoints present by construction
			}
			st.AddedEdges = append(st.AddedEdges, ge)
		}
		back, fwd := w.ends(f, t)
		for _, c := range [3][2][]int32{
			{back, fwd}, // e is c (a Show e is its own, already served, pair)
			{back, w.walk(t, graph.Forward, approaching)}, // e before c
			{w.walk(f, graph.Backward, approaching), fwd}, // e after c
		} {
			if err := w.connect(c[0], c[1]); err != nil {
				return nil, st, err
			}
		}
		if w.vetoed {
			// Only the global completion sweep repairs a veto.
			return rebuild(CauseSweepVeto, "anchor pair vetoed by a restricted direct edge")
		}
	}
	st.Walked, st.Pairs = w.walked, w.pairs
	return a, st, nil
}

// MaintainHide advances an account produced by GenerateHide. The hide
// baseline is purely local — a node is kept iff visible, an edge iff both
// endpoints are kept and both incidence marks are Visible — so maintenance
// is always incremental and exact, including protection changes. Like
// Maintain it patches a in place.
func MaintainHide(a *Account, spec *Spec, d Delta) (*Account, MaintainStats, error) {
	if d.Empty() {
		return a, MaintainStats{}, nil
	}
	v := viewOf(spec, a)
	var st MaintainStats

	dirty := map[graph.NodeID]bool{}
	for _, u := range d.NewNodes {
		dirty[u] = true
	}
	for _, u := range d.UpdatedNodes {
		dirty[u] = true
	}
	for _, e := range d.NewEdges {
		dirty[e.From] = true
		dirty[e.To] = true
	}

	// Patch nodes: presence tracks visibility exactly (hide mode never
	// substitutes surrogates).
	for _, u := range sortedKeys(dirty) {
		if !spec.Graph.HasNode(u) {
			continue
		}
		vis := v.nodeVisible(u)
		present := a.Present(u)
		switch {
		case vis && !present:
			n, _ := spec.Graph.NodeByID(u)
			a.Graph.AddNode(n)
			a.ToOriginal[u] = u
			a.FromOriginal[u] = u
			a.InfoScore[u] = 1
			st.AddedNodes = append(st.AddedNodes, u)
		case vis && present:
			old, _ := a.Graph.NodeByID(u)
			n, _ := spec.Graph.NodeByID(u)
			a.Graph.AddNode(n)
			st.UpdatedNodes = append(st.UpdatedNodes, old)
		case !vis && present:
			old, _ := a.Graph.NodeByID(u)
			for _, nb := range a.Graph.Successors(u) {
				st.RemovedEdges = append(st.RemovedEdges, graph.EdgeID{From: u, To: nb})
			}
			for _, nb := range a.Graph.Predecessors(u) {
				st.RemovedEdges = append(st.RemovedEdges, graph.EdgeID{From: nb, To: u})
			}
			a.Graph.RemoveNode(u)
			delete(a.ToOriginal, u)
			delete(a.FromOriginal, u)
			delete(a.InfoScore, u)
			st.RemovedNodes = append(st.RemovedNodes, old)
		}
	}

	// Patch edges incident to the dirty region.
	seenEdge := map[graph.EdgeID]bool{}
	for _, u := range sortedKeys(dirty) {
		incidentEdges(spec.Graph, u, func(e graph.Edge) {
			id := e.ID()
			if seenEdge[id] {
				return
			}
			seenEdge[id] = true
			shown := a.Present(e.From) && a.Present(e.To) &&
				v.mark(e.From, id) == policy.Visible && v.mark(e.To, id) == policy.Visible
			has := a.Graph.HasEdge(e.From, e.To)
			if shown && !has {
				if err := a.Graph.AddEdge(e); err != nil {
					panic(err) // endpoints present by construction
				}
				st.AddedEdges = append(st.AddedEdges, e)
			}
			if !shown && has {
				a.Graph.RemoveEdge(e.From, e.To)
				st.RemovedEdges = append(st.RemovedEdges, id)
			}
		})
	}
	return a, st, nil
}

// incidentEdges calls fn for every edge incident to u in g (outgoing then
// incoming), in sorted neighbour order.
func incidentEdges(g *graph.Graph, u graph.NodeID, fn func(graph.Edge)) {
	for _, to := range g.Successors(u) {
		if e, ok := g.EdgeByID(graph.EdgeID{From: u, To: to}); ok {
			fn(e)
		}
	}
	for _, from := range g.Predecessors(u) {
		if e, ok := g.EdgeByID(graph.EdgeID{From: from, To: u}); ok {
			fn(e)
		}
	}
}

func sortedIDs(ids []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys(set map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

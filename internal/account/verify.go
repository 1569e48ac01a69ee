package account

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/privilege"
)

func viewOf(spec *Spec, a *Account) hwView {
	hw := a.HighWater
	if len(hw) == 0 && a.Target != "" {
		hw = []privilege.Predicate{a.Target}
	}
	return hwView{spec: spec, hw: hw}
}

// VerifySound checks Definition 5: every node of G' corresponds to a
// unique node of G, and for every path between two nodes of G' there is a
// path in G between the corresponding nodes. Because paths compose, the
// path condition holds iff it holds for every single edge of G'.
//
// It also checks the protection guarantee that motivates the whole
// construction: no original node that is invisible via the account's
// high-water set appears as itself, and no edge with a non-Show
// disposition is exposed directly.
func VerifySound(spec *Spec, a *Account) error {
	v := viewOf(spec, a)

	// Correspondence is a bijection between N' and a subset of N.
	seen := map[graph.NodeID]graph.NodeID{}
	for _, id := range a.Graph.Nodes() {
		orig, ok := a.ToOriginal[id]
		if !ok {
			return fmt.Errorf("account: node %s has no corresponding original", id)
		}
		if !spec.Graph.HasNode(orig) {
			return fmt.Errorf("account: node %s corresponds to unknown original %s", id, orig)
		}
		if prev, dup := seen[orig]; dup {
			return fmt.Errorf("account: original %s has two corresponding nodes (%s, %s)", orig, prev, id)
		}
		seen[orig] = id
		if back, ok := a.FromOriginal[orig]; !ok || back != id {
			return fmt.Errorf("account: FromOriginal[%s]=%s inconsistent with node %s", orig, back, id)
		}
	}

	// Every edge of G' must be witnessed by a directed path in G.
	for _, e := range a.Graph.Edges() {
		fromOrig, toOrig := a.ToOriginal[e.From], a.ToOriginal[e.To]
		if !spec.Graph.HasPath(fromOrig, toOrig) {
			return fmt.Errorf("account: edge %s has no witnessing path %s->%s in G", e.ID(), fromOrig, toOrig)
		}
	}

	// Protection: invisible originals never appear as themselves ...
	for _, id := range a.Graph.Nodes() {
		orig := a.ToOriginal[id]
		if id == orig && !v.nodeVisible(orig) {
			return fmt.Errorf("account: node %s is not visible via %v but appears as itself", orig, v.hw)
		}
	}
	// ... and directly-copied edges never leak a restricted incidence.
	for _, e := range a.Graph.Edges() {
		if a.SurrogateEdges[e.ID()] {
			continue
		}
		orig := graph.EdgeID{From: a.ToOriginal[e.From], To: a.ToOriginal[e.To]}
		if _, exists := spec.Graph.EdgeByID(orig); !exists {
			return fmt.Errorf("account: non-surrogate edge %s does not exist in G", e.ID())
		}
		if v.mark(orig.From, orig) != policy.Visible || v.mark(orig.To, orig) != policy.Visible {
			return fmt.Errorf("account: edge %s shown despite a restricted incidence", orig)
		}
	}
	return nil
}

// PermittedPath reports whether an HW-permitted path (Definition 8) exists
// from n1 to n2 in G for the account's high-water set: a directed path
// with no Hide incidence anywhere, whose first incidence at n1 and last
// incidence at n2 are (effectively) Visible, and — when G contains a
// direct n1->n2 edge — that edge's incidences are both Visible.
func PermittedPath(spec *Spec, a *Account, n1, n2 graph.NodeID) bool {
	if n1 == n2 {
		return false
	}
	s1, ok1 := spec.Graph.Slot(n1)
	s2, ok2 := spec.Graph.Slot(n2)
	if !ok1 || !ok2 {
		return false
	}
	w := newWalker(viewOf(spec, a), a)
	if spec.Graph.HasSlotEdge(s1, s2) {
		return w.disposition(s1, s2) == policy.ShowEdge
	}
	return w.permittedFrom(s1)[s2]
}

// VerifyMaximal checks the three properties of Definition 9 for the given
// account. It is intended for tests and small graphs: maximal connectivity
// is checked for every ordered pair of present nodes, so cost is
// O(n^2 * (n + e)).
func VerifyMaximal(spec *Spec, a *Account) error {
	v := viewOf(spec, a)
	lat := spec.Labeling.Lattice()

	// 1. Maximal node visibility.
	for _, id := range spec.Graph.Nodes() {
		if v.nodeVisible(id) {
			if got, ok := a.Corresponding(id); !ok || got != id {
				return fmt.Errorf("account: visible node %s missing or replaced (got %q)", id, got)
			}
		}
	}

	// 2. Dominant surrogacy: the chosen surrogate's lowest predicate is
	// not strictly dominated by another applicable surrogate's.
	for gid, chosen := range a.SurrogateNodes {
		orig := a.ToOriginal[gid]
		for _, alt := range spec.Surrogates.Surrogates(orig) {
			if !lat.SomeMemberDominates(v.hw, alt.Lowest) {
				continue // not visible via the high-water set
			}
			if lat.Dominates(alt.Lowest, chosen.Lowest) && !lat.Dominates(chosen.Lowest, alt.Lowest) {
				return fmt.Errorf("account: surrogate %s (lowest %s) chosen for %s but %s (lowest %s) dominates",
					chosen.ID, chosen.Lowest, orig, alt.ID, alt.Lowest)
			}
		}
	}

	// 3. Maximal connectivity.
	origsPresent := make([]graph.NodeID, 0, len(a.FromOriginal))
	for orig := range a.FromOriginal {
		origsPresent = append(origsPresent, orig)
	}
	for _, n1 := range origsPresent {
		for _, n2 := range origsPresent {
			if n1 == n2 || !PermittedPath(spec, a, n1, n2) {
				continue
			}
			if !a.Graph.HasPath(a.FromOriginal[n1], a.FromOriginal[n2]) {
				return fmt.Errorf("account: HW-permitted path %s->%s not reflected in G'", n1, n2)
			}
		}
	}
	return nil
}

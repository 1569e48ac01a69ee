// Package surrogate implements the registry of surrogate nodes (§3.1):
// alternate, less sensitive versions of nodes that providers release to
// consumers lacking access to the original.
//
// Each surrogate carries the lowest privilege-predicate via which it is
// visible and an infoScore in [0,1] reflecting how close it is to the
// original (§4.1). The registry enforces the paper's two validity rules:
//
//   - lowest(n') must not dominate lowest(n) — a surrogate may not require
//     more privilege than the original (incomparability is allowed);
//   - infoScores of surrogates for the same node respect the dominance
//     order: if lowest(n') dominates lowest(n”), then
//     infoScore(n') >= infoScore(n”).
package surrogate

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/privilege"
)

// NullID derives the conventional identifier of the <null> surrogate for an
// original node: the original id with a "∅" suffix. The <null> surrogate
// has no features and, by default, an infoScore of zero (§3.1: "a <null>
// surrogate node with no features; <null> can be used as a default
// surrogate").
func NullID(original graph.NodeID) graph.NodeID {
	return original + "∅"
}

// Surrogate is one alternate version of an original node.
type Surrogate struct {
	// ID is the surrogate node's identifier in protected accounts. It must
	// be unique across the registry and distinct from original node ids.
	ID graph.NodeID
	// Features are the (reduced or generalised) attribute-value pairs the
	// surrogate exposes, e.g. <name,"a trusted law enforcement source">.
	Features graph.Features
	// Lowest is the least privilege-predicate via which the surrogate is
	// visible (Definition 3 applied to the surrogate).
	Lowest privilege.Predicate
	// InfoScore in [0,1] reflects closeness to the original node; 1 means
	// identical (§4.1).
	InfoScore float64
	// IsNull marks the featureless default surrogate.
	IsNull bool
}

// Registry maps original nodes to their provider-supplied surrogates.
// There is no requirement that surrogates exist for every node (§3.1).
type Registry struct {
	labeling *privilege.Labeling
	byNode   map[graph.NodeID][]Surrogate
	ids      map[graph.NodeID]graph.NodeID // surrogate id -> original
	// nullDefault, when true, makes SelectForSet fall back to a synthesised
	// <null> surrogate (visible via Public) for nodes with no applicable
	// provider surrogate.
	nullDefault bool
}

// NewRegistry returns an empty registry bound to the labeling that defines
// lowest() for original nodes.
func NewRegistry(lb *privilege.Labeling) *Registry {
	return &Registry{
		labeling: lb,
		byNode:   map[graph.NodeID][]Surrogate{},
		ids:      map[graph.NodeID]graph.NodeID{},
	}
}

// EnableNullDefault makes every node implicitly carry a Public <null>
// surrogate used when no provider surrogate applies. The paper allows but
// does not require this ("<null> can be used as a default surrogate").
func (r *Registry) EnableNullDefault() { r.nullDefault = true }

// Add registers a surrogate for an original node, validating the paper's
// constraints against the labeling and previously registered siblings.
// The registry takes ownership of s.Features without a copy, as
// graph.AddNode does: the map is immutable from here on, shared with
// every account the surrogate stands in, and a caller that keeps a map it
// will write into passes a Features.Clone instead.
func (r *Registry) Add(original graph.NodeID, s Surrogate) error {
	if s.ID == "" {
		return fmt.Errorf("surrogate: empty surrogate id for %s", original)
	}
	if s.ID == original {
		return fmt.Errorf("surrogate: surrogate id equals original id %s", original)
	}
	if s.InfoScore < 0 || s.InfoScore > 1 {
		return fmt.Errorf("surrogate: infoScore %v for %s out of [0,1]", s.InfoScore, s.ID)
	}
	lat := r.labeling.Lattice()
	if !lat.Known(s.Lowest) {
		return fmt.Errorf("surrogate: unknown predicate %q on %s", s.Lowest, s.ID)
	}
	if prev, dup := r.ids[s.ID]; dup {
		return fmt.Errorf("surrogate: id %s already registered for %s", s.ID, prev)
	}
	origLowest := r.labeling.LowestNode(original)
	if lat.Dominates(s.Lowest, origLowest) {
		return fmt.Errorf("surrogate: lowest(%s)=%s dominates lowest(%s)=%s",
			s.ID, s.Lowest, original, origLowest)
	}
	for _, sib := range r.byNode[original] {
		if sib.Lowest == s.Lowest {
			continue // equal predicates carry no ordering constraint
		}
		if lat.Dominates(s.Lowest, sib.Lowest) && s.InfoScore < sib.InfoScore {
			return fmt.Errorf("surrogate: infoScore(%s)=%v < infoScore(%s)=%v but %s dominates %s",
				s.ID, s.InfoScore, sib.ID, sib.InfoScore, s.Lowest, sib.Lowest)
		}
		if lat.Dominates(sib.Lowest, s.Lowest) && sib.InfoScore < s.InfoScore {
			return fmt.Errorf("surrogate: infoScore(%s)=%v > infoScore(%s)=%v but %s dominates %s",
				s.ID, s.InfoScore, sib.ID, sib.InfoScore, sib.Lowest, s.Lowest)
		}
	}
	r.byNode[original] = append(r.byNode[original], s)
	r.ids[s.ID] = original
	return nil
}

// Surrogates returns the registered surrogates for a node, sorted by ID.
func (r *Registry) Surrogates(original graph.NodeID) []Surrogate {
	out := append([]Surrogate(nil), r.byNode[original]...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SelectForSet returns the surrogate to stand in for the original node in
// a protected account with high-water set hw, implementing the dominant
// surrogacy property (Definition 9 part 2, generalised to a high-water set
// by Appendix B): a surrogate is applicable when some member of the set
// dominates its lowest predicate; among applicable surrogates one whose
// lowest predicate is maximal is chosen, ties broken by higher infoScore,
// then by id, keeping selection deterministic. If incomparable candidates
// remain, the infoScore/id tie-break plays the role of the paper's
// "domain-dependent function".
//
// A surrogate whose id taken reports true is not applicable either (a nil
// taken excludes nothing): protected accounts pass "names a node of the
// original graph", since such a surrogate would stand where that node
// stands.
//
// The boolean result is false when no surrogate applies (and the null
// default is disabled): the node is simply omitted from the account.
func (r *Registry) SelectForSet(original graph.NodeID, hw []privilege.Predicate, taken func(graph.NodeID) bool) (Surrogate, bool) {
	lat := r.labeling.Lattice()
	var candidates []Surrogate
	for _, s := range r.byNode[original] {
		if lat.SomeMemberDominates(hw, s.Lowest) && (taken == nil || !taken(s.ID)) {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		if r.nullDefault && (taken == nil || !taken(NullID(original))) {
			return Surrogate{ID: NullID(original), Lowest: privilege.Public, IsNull: true}, true
		}
		return Surrogate{}, false
	}
	// Keep only candidates whose lowest predicate is maximal.
	var maximal []Surrogate
	for _, s := range candidates {
		dominated := false
		for _, t := range candidates {
			if t.ID != s.ID && lat.Dominates(t.Lowest, s.Lowest) && !lat.Dominates(s.Lowest, t.Lowest) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, s)
		}
	}
	sort.Slice(maximal, func(i, j int) bool {
		if maximal[i].InfoScore != maximal[j].InfoScore {
			return maximal[i].InfoScore > maximal[j].InfoScore
		}
		return maximal[i].ID < maximal[j].ID
	})
	return maximal[0], true
}

// Labeling returns the labeling the registry validates against.
func (r *Registry) Labeling() *privilege.Labeling { return r.labeling }

// Clone returns an independent copy of the registry, sharing the
// labeling and the surrogates' immutable feature maps.
func (r *Registry) Clone() *Registry {
	c := NewRegistry(r.labeling)
	c.nullDefault = r.nullDefault
	for n, ss := range r.byNode {
		c.byNode[n] = slices.Clone(ss)
	}
	for id, orig := range r.ids {
		c.ids[id] = orig
	}
	return c
}

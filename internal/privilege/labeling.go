package privilege

import (
	"fmt"

	"repro/internal/graph"
)

// Labeling assigns every graph node its lowest() predicate (Definition 3):
// the least privilege via which the node is visible. Nodes with no
// explicit assignment default to Public. Edge release is per incidence,
// in package policy.
//
// The paper treats authorized(c, o) as an oracle evaluated by the object's
// cognizant authority; this library's concrete model is the standard one
// induced by lowest(): o is visible via p iff p dominates lowest(o).
type Labeling struct {
	lattice *Lattice
	nodes   map[graph.NodeID]Predicate
}

// NewLabeling returns an empty labeling over the given lattice.
func NewLabeling(l *Lattice) *Labeling {
	return &Labeling{
		lattice: l,
		nodes:   map[graph.NodeID]Predicate{},
	}
}

// Lattice returns the lattice the labeling is defined over.
func (lb *Labeling) Lattice() *Lattice { return lb.lattice }

// SetNode assigns lowest(n) = p.
func (lb *Labeling) SetNode(n graph.NodeID, p Predicate) error {
	if !lb.lattice.Known(p) {
		return fmt.Errorf("privilege: unknown predicate %q for node %s", p, n)
	}
	lb.nodes[n] = p
	return nil
}

// ClearNode removes node n's explicit lowest() assignment, restoring the
// Public default (a replaced object whose new version carries no Lowest).
func (lb *Labeling) ClearNode(n graph.NodeID) {
	delete(lb.nodes, n)
}

// LowestNode returns lowest(n), defaulting to Public.
func (lb *Labeling) LowestNode(n graph.NodeID) Predicate {
	if p, ok := lb.nodes[n]; ok {
		return p
	}
	return Public
}

// NodeVisible reports whether node n is visible via consumer predicate p
// (Definition 1).
func (lb *Labeling) NodeVisible(n graph.NodeID, p Predicate) bool {
	return lb.lattice.Dominates(p, lb.LowestNode(n))
}

// HighWater computes the high-water set of a graph under this labeling
// (Definition 6): the maximal elements of {lowest(n) : n in N}. The result
// is an antichain in which every node's lowest predicate is dominated by
// some member, and every member is some node's lowest predicate.
func (lb *Labeling) HighWater(g *graph.Graph) []Predicate {
	var lows []Predicate
	for _, id := range g.Nodes() {
		lows = append(lows, lb.LowestNode(id))
	}
	return lb.lattice.Maximal(lows)
}

// Clone returns an independent copy of the labeling (sharing the immutable
// lattice).
func (lb *Labeling) Clone() *Labeling {
	c := NewLabeling(lb.lattice)
	for n, p := range lb.nodes {
		c.nodes[n] = p
	}
	return c
}

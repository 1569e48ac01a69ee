package plus

import (
	"fmt"
	"sort"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// applyObjectRecord installs one stored object into the spec components,
// replacing any previous version: features, lowest() labeling and the
// protection threshold all track the new record, including clearing what
// it no longer carries. buildSpec (whole snapshot) and ApplyDelta (change
// feed) share this translation so the two paths cannot drift apart. o is
// as stored (shape.go): its Features is already the node's graph form,
// which the graph shares with the store; only a featureless object's
// {name, kind} map is built here.
func applyObjectRecord(g *graph.Graph, lb *privilege.Labeling, pol *policy.Policy, o *Object) error {
	id := graph.NodeID(o.ID)
	feats := graph.Features(o.Features)
	if feats == nil {
		feats = graph.Features{"name": o.Name, "kind": string(o.Kind)}
	}
	g.AddNode(graph.Node{ID: id, Features: feats})
	if o.Lowest != "" {
		if err := lb.SetNode(id, privilege.Predicate(o.Lowest)); err != nil {
			return err
		}
	} else {
		lb.ClearNode(id)
	}
	if o.Protect != "" {
		below := policy.Surrogate
		if o.Protect == string(ModeHide) {
			below = policy.Hide
		}
		lowest := privilege.Predicate(o.Lowest)
		if o.Lowest == "" {
			lowest = privilege.Public
		}
		return pol.SetNodeThreshold(id, lowest, below)
	}
	pol.ClearNodeThreshold(id)
	return nil
}

// applyEdgeRecord installs one stored edge and its optional incidence
// marking. Shared by buildSpec and ApplyDelta.
func applyEdgeRecord(g *graph.Graph, pol *policy.Policy, e *Edge) error {
	ge := graph.Edge{From: graph.NodeID(e.From), To: graph.NodeID(e.To), Label: e.Label}
	if err := g.AddEdge(ge); err != nil {
		return err
	}
	if e.Marking == "" {
		return nil
	}
	lowest := privilege.Predicate(e.Lowest)
	if e.Lowest == "" {
		lowest = privilege.Public
	}
	var below policy.Marking
	switch e.Marking {
	case string(ModeSurrogate):
		below = policy.Surrogate
	case string(ModeHide):
		below = policy.Hide
	default:
		return fmt.Errorf("plus: edge %s->%s has unknown marking %q", e.From, e.To, e.Marking)
	}
	return pol.SetIncidenceThreshold(ge.To, ge.ID(), lowest, below)
}

// applySurrogateRecord registers one stored surrogate, its graph-form
// features shared with the store as applyObjectRecord's are. Shared by
// buildSpec and ApplyDelta.
func applySurrogateRecord(reg *surrogate.Registry, sp *SurrogateSpec) error {
	lowest := privilege.Predicate(sp.Lowest)
	if sp.Lowest == "" {
		lowest = privilege.Public
	}
	feats := graph.Features(sp.Features)
	if feats == nil {
		feats = graph.Features{"name": sp.Name}
	}
	return reg.Add(graph.NodeID(sp.ForID), surrogate.Surrogate{
		ID:        graph.NodeID(sp.ID),
		Features:  feats,
		Lowest:    lowest,
		InfoScore: sp.InfoScore,
	})
}

// SpecFromSnapshot assembles the account.Spec of an entire snapshot:
// every object, edge and surrogate, with the same labeling and
// policy-threshold translation the lineage engine applies to a fetched
// closure. PLUSQL builds its viewer-protected query views from this, so
// declarative queries and lineage queries protect records identically.
// Records are added in sorted object order, keeping the spec (and
// everything derived from it) deterministic.
func SpecFromSnapshot(sn *Snapshot, lattice *privilege.Lattice) (*account.Spec, error) {
	ids := make([]string, 0, sn.NumObjects())
	sn.eachObject(func(o Object) { ids = append(ids, o.ID) })
	sort.Strings(ids)
	f := &fetched{sn: sn, ids: [][]string{ids}}
	for _, id := range ids {
		// Out covers each edge exactly once (edges are keyed by From).
		if out := sn.Out(id); len(out) > 0 {
			f.edges = append(f.edges, out)
		}
		if ss := sn.storedSurrogates(id); len(ss) > 0 {
			f.surrogates = append(f.surrogates, ss)
		}
	}
	return buildSpec(lattice, f)
}

// ClassifyDelta translates a storage delta into account terms against the
// spec it is about to be applied to: which nodes are new versus replaced,
// which edges and surrogate registrations were added. Call it BEFORE
// ApplyDelta mutates the spec.
func ClassifyDelta(spec *account.Spec, d *Delta) account.Delta {
	var ad account.Delta
	seenObj := map[graph.NodeID]bool{}
	seenSur := map[graph.NodeID]bool{}
	for _, c := range d.Changes {
		switch c.Kind {
		case ChangeObject:
			id := graph.NodeID(c.Object.ID)
			if seenObj[id] {
				continue // a node stored twice in one delta is still one node
			}
			seenObj[id] = true
			if spec.Graph.HasNode(id) {
				ad.UpdatedNodes = append(ad.UpdatedNodes, id)
			} else {
				ad.NewNodes = append(ad.NewNodes, id)
			}
		case ChangeEdge:
			ad.NewEdges = append(ad.NewEdges, graph.EdgeID{
				From: graph.NodeID(c.Edge.From), To: graph.NodeID(c.Edge.To)})
		case ChangeSurrogate:
			id := graph.NodeID(c.Surrogate.ForID)
			if !seenSur[id] {
				seenSur[id] = true
				ad.SurrogateFor = append(ad.SurrogateFor, id)
			}
		}
	}
	return ad
}

// ApplyDelta advances a spec assembled by SpecFromSnapshot to the delta's
// end revision, mirroring the whole-snapshot translation record for
// record: graph nodes and edges, lowest() labeling, protection thresholds
// and surrogate registrations. Applying the delta for revision window
// (A, B] to the spec of snapshot A yields a spec semantically equal to
// SpecFromSnapshot at B. The spec is mutated in place; on error it may be
// partially advanced and must be discarded.
func ApplyDelta(spec *account.Spec, d *Delta) error {
	for i := range d.Changes {
		c := &d.Changes[i]
		var err error
		switch c.Kind {
		case ChangeObject:
			err = applyObjectRecord(spec.Graph, spec.Labeling, spec.Policy, &c.Object)
		case ChangeEdge:
			err = applyEdgeRecord(spec.Graph, spec.Policy, &c.Edge)
		case ChangeSurrogate:
			err = applySurrogateRecord(spec.Surrogates, &c.Surrogate)
		default:
			err = fmt.Errorf("plus: unknown change kind %d", c.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

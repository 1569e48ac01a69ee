package plusql

import (
	"slices"
	"sort"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/plus"
)

// This file implements delta-scoped view refresh: instead of rebuilding a
// protected view from a whole snapshot after every write, Advance pulls
// the change-feed delta between the view's revision and the snapshot's and
// applies it IN PLACE — to the retained spec record-for-record, to the
// protected account (internal/account.Maintain) and to the view's
// node/kind/name/attr/adjacency indexes — dropping only the reachability
// memos an added edge can extend. The work and the allocation are
// proportional to the delta, not to the graph.

// AdvanceInfo reports how one view advance was served.
type AdvanceInfo struct {
	// AccountRebuilt reports the account was regenerated from the
	// (incrementally advanced) spec because the delta could not be
	// localised; Reason says why and may name the node.
	AccountRebuilt bool
	Reason         string
	// Cause classifies a rebuild or a refusal from a fixed vocabulary
	// (see the cause constants) that never carries a node id.
	Cause string
	// Walked and Pairs are the account pass's cost in steps: anchor-walk
	// (node, state) visits and candidate anchor pairs examined.
	Walked, Pairs int
}

// Refresh causes, the reason label of plus_plusql_view_refresh_total.
// Account rebuilds use account.RebuildCause's values.
const (
	causeDelta      = "delta"       // an ordinary localised advance
	causeColdStart  = "cold_start"  // no view to advance
	causeFeedBehind = "feed_behind" // the feed no longer retains the window
	causeApplyError = "apply_error" // the delta failed to apply
)

// Advance moves the view forward to snapshot sn by the changes between the
// two revisions, mutating it in place, and returns the view itself. The
// caller must hold the view exclusively: no query may be reading it (the
// Engine's slot lock guarantees that). It returns ok=false when the view
// cannot advance — change feed too far behind (or closed), or the delta
// failed to apply; the view must then be discarded (it may be half
// advanced) and the caller falls back to a full NewView build.
func (v *View) Advance(sn *plus.Snapshot) (*View, AdvanceInfo, bool) {
	if sn.Revision() == v.rev {
		return v, AdvanceInfo{}, true
	}
	delta, err := sn.DeltaSince(v.rev)
	if err != nil {
		return nil, AdvanceInfo{Cause: causeFeedBehind}, false
	}
	ad := plus.ClassifyDelta(v.spec, delta)
	pre := account.Capture(v.spec, ad)
	if err := plus.ApplyDelta(v.spec, delta); err != nil {
		return nil, AdvanceInfo{Cause: causeApplyError}, false
	}

	var st account.MaintainStats
	if v.mode == plus.ModeHide {
		v.acct, st, err = account.MaintainHide(v.acct, v.spec, ad)
	} else {
		v.acct, st, err = account.Maintain(v.acct, v.spec, ad, pre)
	}
	if err != nil {
		return nil, AdvanceInfo{Cause: causeApplyError}, false
	}
	v.rev = sn.Revision()
	if st.Rebuilt {
		v.index()
		return v, AdvanceInfo{AccountRebuilt: true, Reason: st.Reason, Cause: string(st.Cause)}, true
	}
	v.patch(st)
	return v, AdvanceInfo{Cause: causeDelta, Walked: st.Walked, Pairs: st.Pairs}, true
}

// patch applies one maintenance pass's stats to the view's indexes.
func (v *View) patch(st account.MaintainStats) {
	// Node list and postings: withdraw what the replaced and removed nodes
	// posted under their old features, then post the current ones.
	for _, n := range st.RemovedNodes {
		v.nodes = withoutID(v.nodes, n.ID)
		v.post(n.ID, n.Features, false)
	}
	for _, n := range st.UpdatedNodes {
		v.post(n.ID, n.Features, false)
	}
	for _, n := range st.UpdatedNodes {
		v.post(n.ID, v.Features(n.ID), true)
	}
	for _, id := range st.AddedNodes {
		v.nodes = withID(v.nodes, id)
		v.post(id, v.Features(id), true)
	}

	// Adjacency.
	for _, eid := range st.RemovedEdges {
		v.out[eid.From] = removeNeighbor(v.out[eid.From], eid.To)
		v.in[eid.To] = removeNeighbor(v.in[eid.To], eid.From)
		v.edges--
	}
	for _, e := range st.AddedEdges {
		v.out[e.From] = insertNeighbor(v.out[e.From], Neighbor{To: e.To, Label: e.Label})
		v.in[e.To] = insertNeighbor(v.in[e.To], Neighbor{To: e.From, Label: e.Label})
		v.edges++
	}

	// Reachability memos. Removals (rare: hide-mode visibility downgrades)
	// drop all. An added edge u->w extends exactly the forward closures
	// that already contain u (or start at it) and the backward closures
	// that contain w: any new path leaves the old graph through some added
	// edge whose source the old closure reached, so testing each memo
	// against its own pre-patch contents is exact.
	if len(st.RemovedEdges) > 0 || len(st.RemovedNodes) > 0 {
		v.fwdReach = map[graph.NodeID][]graph.NodeID{}
		v.backReach = map[graph.NodeID][]graph.NodeID{}
		return
	}
	for _, e := range st.AddedEdges {
		for id, reach := range v.fwdReach {
			if id == e.From || contains(reach, e.From) {
				delete(v.fwdReach, id)
			}
		}
		for id, reach := range v.backReach {
			if id == e.To || contains(reach, e.To) {
				delete(v.backReach, id)
			}
		}
	}
}

// post adds (present=true) or withdraws a node's entries in the kind, name
// and attr posting lists, keyed by the given features.
func (v *View) post(id graph.NodeID, f graph.Features, present bool) {
	if k := f["kind"]; k != "" {
		setPosting(v.byKind, k, id, present)
	}
	if name := f["name"]; name != "" {
		setPosting(v.byName, name, id, present)
	}
	for _, p := range attrPairs(f) {
		setPosting(v.byAttr, p, id, present)
	}
}

// setPosting makes id a member (or not) of the sorted posting list idx[k].
// A list that empties is deleted, as index() never creates one.
func setPosting[K comparable](idx map[K][]graph.NodeID, k K, id graph.NodeID, present bool) {
	if present {
		idx[k] = withID(idx[k], id)
		return
	}
	ids := withoutID(idx[k], id)
	if len(ids) == 0 {
		delete(idx, k)
		return
	}
	idx[k] = ids
}

func contains(ids []graph.NodeID, id graph.NodeID) bool {
	_, ok := slices.BinarySearch(ids, id)
	return ok
}

// withID inserts id into a sorted list in place unless already present.
func withID(ids []graph.NodeID, id graph.NodeID) []graph.NodeID {
	if i, ok := slices.BinarySearch(ids, id); !ok {
		return slices.Insert(ids, i, id)
	}
	return ids
}

// withoutID removes id from a sorted list in place if present.
func withoutID(ids []graph.NodeID, id graph.NodeID) []graph.NodeID {
	if i, ok := slices.BinarySearch(ids, id); ok {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

// insertNeighbor inserts nb into a slice sorted by To, keeping it sorted.
func insertNeighbor(ns []Neighbor, nb Neighbor) []Neighbor {
	i := sort.Search(len(ns), func(i int) bool { return ns[i].To >= nb.To })
	ns = append(ns, Neighbor{})
	copy(ns[i+1:], ns[i:])
	ns[i] = nb
	return ns
}

// removeNeighbor removes the entry with the given far endpoint.
func removeNeighbor(ns []Neighbor, to graph.NodeID) []Neighbor {
	i := sort.Search(len(ns), func(i int) bool { return ns[i].To >= to })
	if i < len(ns) && ns[i].To == to {
		return append(ns[:i], ns[i+1:]...)
	}
	return ns
}

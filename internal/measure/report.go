package measure

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/account"
	"repro/internal/graph"
)

// NodeReport breaks the utility measures down per original node — the
// administrator-facing view §4 implies: which nodes lost connectivity,
// which are standing in as surrogates, and what each contributes.
type NodeReport struct {
	Original       graph.NodeID
	Corresponding  graph.NodeID // empty when absent
	Present        bool
	SurrogateUsed  bool
	InfoScore      float64
	ConnectedIn    int     // connected pairs of the original in G
	ConnectedOut   int     // connected pairs of the corresponding node in G'
	PathPercentage float64 // %P(n)
}

// NodeReports computes one row per original node, sorted by id.
func NodeReports(spec *account.Spec, a *account.Account) []NodeReport {
	connG := spec.Graph.ConnectedPairsAll()
	connA := a.Graph.ConnectedCounts()
	var out []NodeReport
	for _, n := range spec.Graph.Nodes() {
		r := NodeReport{
			Original:    n,
			ConnectedIn: connG[n],
		}
		if id, ok := a.Corresponding(n); ok {
			r.Corresponding = id
			r.Present = true
			r.InfoScore = a.InfoScore[id]
			s, _ := a.Graph.Slot(id)
			r.ConnectedOut = connA[s]
			_, r.SurrogateUsed = a.SurrogateNodes[id]
		}
		r.PathPercentage = pathPercentage(a, n, r.ConnectedIn, connA)
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Original < out[j].Original })
	return out
}

// EdgeReport is the per-edge opacity view of §4.2: "opacity allows an
// administrator to look at specific nodes and incident edges that are of
// high security concern and to evaluate the risk of inference".
type EdgeReport struct {
	Edge             graph.EdgeID
	ShownInAccount   bool
	EndpointMissing  bool
	Opacity          float64
	OpacityScaleFree float64
}

// EdgeReports computes one row per original edge, sorted.
func EdgeReports(spec *account.Spec, a *account.Account, adv Adversary) []EdgeReport {
	conn := a.Graph.ConnectedPairsAll()
	ieTotal := totalInference(a, adv)
	var out []EdgeReport
	for _, e := range spec.Graph.Edges() {
		id := e.ID()
		r := EdgeReport{
			Edge:             id,
			Opacity:          edgeOpacityCached(a, id, conn, ieTotal, adv),
			OpacityScaleFree: edgeOpacityScaleFree(a, id, conn, adv),
		}
		n1, ok1 := a.Corresponding(id.From)
		n2, ok2 := a.Corresponding(id.To)
		r.EndpointMissing = !ok1 || !ok2
		r.ShownInAccount = ok1 && ok2 && a.Graph.HasEdge(n1, n2)
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Edge.From != out[j].Edge.From {
			return out[i].Edge.From < out[j].Edge.From
		}
		return out[i].Edge.To < out[j].Edge.To
	})
	return out
}

// Report bundles the whole-account summary with the per-object
// breakdowns.
type Report struct {
	Utility      Utility
	GraphOpacity float64
	Nodes        []NodeReport
	Edges        []EdgeReport
}

// NewReport computes the full report under the given adversary.
func NewReport(spec *account.Spec, a *account.Account, adv Adversary) *Report {
	return &Report{
		Utility:      Utilities(spec, a),
		GraphOpacity: GraphOpacity(spec, a, adv),
		Nodes:        NodeReports(spec, a),
		Edges:        EdgeReports(spec, a, adv),
	}
}

// String renders the report as an aligned text block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "utility: %s  graphOpacity=%.3f\n", r.Utility, r.GraphOpacity)
	b.WriteString("nodes:\n")
	for _, n := range r.Nodes {
		state := "hidden"
		switch {
		case n.Present && n.SurrogateUsed:
			state = "surrogate " + string(n.Corresponding)
		case n.Present:
			state = "shown"
		}
		fmt.Fprintf(&b, "  %-12s %-22s %%P=%.3f infoScore=%.2f connected %d/%d\n",
			n.Original, state, n.PathPercentage, n.InfoScore, n.ConnectedOut, n.ConnectedIn)
	}
	b.WriteString("edges:\n")
	for _, e := range r.Edges {
		state := "dropped"
		switch {
		case e.ShownInAccount:
			state = "shown"
		case e.EndpointMissing:
			state = "endpoint hidden"
		}
		fmt.Fprintf(&b, "  %-16s %-16s opacity=%.3f (scale-free %.3f)\n",
			e.Edge, state, e.Opacity, e.OpacityScaleFree)
	}
	return b.String()
}

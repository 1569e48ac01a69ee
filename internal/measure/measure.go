// Package measure implements the paper's §4 measures for comparing
// protected accounts: the Path Utility Measure and Node Utility Measure
// (Figure 3) and the per-edge opacity measure (Figure 4) with the advanced
// adversary constants of Figure 5.
//
// Every measure that needs the §4.1 connectivity counts takes them for the
// whole graph at once from graph.ConnectedCounts (or its id-keyed form,
// graph.ConnectedPairsAll): O((n+e)·n/64) word
// operations over 64 bytes of scratch per node, against the
// O(n·(n+e)) map-BFS walks of a count per node. The
// counts are integers, so the measures are bit-identical either way.
package measure

import (
	"fmt"

	"repro/internal/account"
	"repro/internal/graph"
)

// PathPercentage computes %P(n) for one original node n: the number of
// nodes connected to n's corresponding node in G', divided by the number of
// nodes connected to n in G. Nodes with no corresponding node contribute 0.
// An isolated original (denominator 0) contributes 1 when present — all of
// its (empty) connectivity is retained — and 0 otherwise.
func PathPercentage(spec *account.Spec, a *account.Account, n graph.NodeID) float64 {
	s, ok := spec.Graph.Slot(n)
	if !ok {
		return pathPercentage(a, n, 0, nil)
	}
	return pathPercentage(a, n, spec.Graph.ConnectedCounts()[s], a.Graph.ConnectedCounts())
}

// pathPercentage is %P(n) from n's count in G and the account's counts
// indexed by G' slot (graph.ConnectedCounts).
func pathPercentage(a *account.Account, n graph.NodeID, denom int, connA []int) float64 {
	id, ok := a.Corresponding(n)
	if !ok {
		return 0
	}
	if denom == 0 {
		return 1
	}
	s, _ := a.Graph.Slot(id)
	return float64(connA[s]) / float64(denom)
}

// PathUtility computes the Path Utility Measure (Figure 3a): the average of
// %P(n) over every node n of the original graph, summed in node id order.
func PathUtility(spec *account.Spec, a *account.Account) float64 {
	g := spec.Graph
	if g.NumNodes() == 0 {
		return 0
	}
	connG := g.ConnectedCounts()
	connA := a.Graph.ConnectedCounts()
	var sum float64
	for _, s := range g.SortedSlots() {
		sum += pathPercentage(a, g.SlotID(s), connG[s], connA)
	}
	return sum / float64(g.NumNodes())
}

// NodeUtility computes the Node Utility Measure (Figure 3c): the sum of
// infoScore(n') over the account's nodes, divided by |N| of the original
// graph. All-or-nothing accounts therefore score |N'|/|N|, as the paper
// notes.
func NodeUtility(spec *account.Spec, a *account.Account) float64 {
	if spec.Graph.NumNodes() == 0 {
		return 0
	}
	var sum float64
	for n := range a.Graph.SortedNodes() {
		sum += a.InfoScore[n.ID]
	}
	return sum / float64(spec.Graph.NumNodes())
}

// Utility bundles both §4.1 measures.
type Utility struct {
	Path float64
	Node float64
}

// Utilities computes both utility measures in one pass.
func Utilities(spec *account.Spec, a *account.Account) Utility {
	return Utility{Path: PathUtility(spec, a), Node: NodeUtility(spec, a)}
}

func (u Utility) String() string {
	return fmt.Sprintf("path=%.3f node=%.3f", u.Path, u.Node)
}

// Adversary models the attacker background knowledge that parameterises
// the opacity formula: FP, the probability the attacker focuses on a node,
// driven by how connected the node appears; and IE, the likelihood of
// inferring an edge toward a node, driven by that node's apparent degree.
type Adversary interface {
	// FocusProbability is FP for a node connected (by any-length paths) to
	// `connected` other nodes of the protected account.
	FocusProbability(connected int) float64
	// InferenceLikelihood is IE for inferring an edge incident to a node
	// with the given degree in the protected account.
	InferenceLikelihood(degree int) float64
}

// Advanced is the advanced adversary of Figure 5, tuned for original
// graphs with no disconnected subgraphs and average degree > 1: "loner"
// nodes (connected to at most LonerMax others) attract focus with
// probability HighFP, and edges toward low-degree nodes (degree <=
// LowDegreeMax) are inferred with likelihood HighIE.
type Advanced struct {
	LonerMax     int
	LowDegreeMax int
	HighFP       float64
	LowFP        float64
	HighIE       float64
	LowIE        float64
}

// Figure5 returns the advanced adversary with the paper's sample
// constants: FP = 0.8 for 0–1 connected nodes else 0.2; IE = 0.8 for
// degree <= 1 else 0.2.
func Figure5() Advanced {
	return Advanced{LonerMax: 1, LowDegreeMax: 1, HighFP: 0.8, LowFP: 0.2, HighIE: 0.8, LowIE: 0.2}
}

// FocusProbability implements Adversary.
func (adv Advanced) FocusProbability(connected int) float64 {
	if connected <= adv.LonerMax {
		return adv.HighFP
	}
	return adv.LowFP
}

// InferenceLikelihood implements Adversary.
func (adv Advanced) InferenceLikelihood(degree int) float64 {
	if degree <= adv.LowDegreeMax {
		return adv.HighIE
	}
	return adv.LowIE
}

// Naive is the naïve attacker of §4.2, with no knowledge of general graph
// properties: every node draws equal (low) focus and every candidate edge
// is equally likely, so redaction arouses no suspicion beyond the uniform
// baseline.
type Naive struct{}

// FocusProbability implements Adversary with a uniform low focus.
func (Naive) FocusProbability(int) float64 { return 0.2 }

// InferenceLikelihood implements Adversary uniformly.
func (Naive) InferenceLikelihood(int) float64 { return 0.5 }

// EdgeOpacity computes the opacity of one original edge e = (n1 -> n2) of
// G with respect to the protected account (Figure 4):
//
//	0                     if the corresponding edge is present in G',
//	1                     if n1 or n2 has no corresponding node in G',
//	1 − R                 otherwise,
//
// where R averages the two ways an attacker recreates the edge: focusing
// on n1' and inferring an outgoing edge toward n2' among all candidate
// targets, or focusing on n2' and inferring an incoming edge from n1'
// among all candidate sources:
//
//	R = ½ [ FP(n1')·IE(n1'→n2') / Σ_{m≠n1'} IE(n1'→m)
//	      + FP(n2')·IE(m→n2' at m=n1') / Σ_{m≠n2'} IE(m→n2') ] .
//
// IE of a candidate edge is driven by the degree of the node the attacker
// walks toward (Figure 5: "more likely to infer an edge to a node with few
// edges"), so the first sum ranges over target degrees and the second over
// source degrees. The published formula rendering is partially unreadable;
// DESIGN.md records this reading and its fidelity to Table 1.
func EdgeOpacity(spec *account.Spec, a *account.Account, e graph.EdgeID, adv Adversary) float64 {
	return edgeOpacityCached(a, e, a.Graph.ConnectedPairsAll(), totalInference(a, adv), adv)
}

// totalInference is Σ IE(deg m) over every account node m: the candidate
// pool of the Figure 4 formula before the focused node is excluded. It
// depends only on the account, so callers compute it once beside the
// shared connectivity counts.
func totalInference(a *account.Account, adv Adversary) float64 {
	var sum float64
	for _, m := range a.Graph.Nodes() {
		sum += adv.InferenceLikelihood(a.Graph.Degree(m))
	}
	return sum
}

// inferability is R in the Figure 4 formula, for account nodes n1 -> n2.
// ieTotal is totalInference(a, adv); each candidate pool Σ_{m≠n} IE(m) is
// taken as ieTotal minus n's own term rather than re-summed per edge, so
// the result can differ from the literal sum in the last ulp (well inside
// the 1e-9 the tests and goldens compare at).
func inferability(a *account.Account, n1, n2 graph.NodeID, conn map[graph.NodeID]int, ieTotal float64, adv Adversary) float64 {
	if a.Graph.NumNodes() < 2 {
		return 0
	}
	ie1 := adv.InferenceLikelihood(a.Graph.Degree(n1))
	ie2 := adv.InferenceLikelihood(a.Graph.Degree(n2))
	// Attacker focuses on n1 and guesses the target of a missing outgoing
	// edge: candidates weighted by target degree.
	var term1 float64
	if sumOut := ieTotal - ie1; sumOut > 0 {
		term1 = adv.FocusProbability(conn[n1]) * ie2 / sumOut
	}
	// Attacker focuses on n2 and guesses the source of a missing incoming
	// edge: candidates weighted by source degree.
	var term2 float64
	if sumIn := ieTotal - ie2; sumIn > 0 {
		term2 = adv.FocusProbability(conn[n2]) * ie1 / sumIn
	}
	return (term1 + term2) / 2
}

// edgeOpacityScaleFree computes opacity under the alternative scale-free
// reading of Figure 4, in which IE is an absolute likelihood rather than a
// share of a candidate pool:
//
//	R = ½ [ FP(n1')·IE(deg n2') + FP(n2')·IE(deg n1') ] .
//
// The normalised EdgeOpacity matches the paper's Table 1 numbers on the
// 11-node running example but compresses toward 1 on 200-node graphs
// (every candidate share is ~1/n); this variant keeps the dynamic range
// the paper's Figure 9a bars display at scale. EXPERIMENTS.md reports
// both. Fixed points (edge present -> 0, endpoint absent -> 1) are shared.
//
// conn is a.Graph.ConnectedPairsAll(), shared across the edges of a.
func edgeOpacityScaleFree(a *account.Account, e graph.EdgeID, conn map[graph.NodeID]int, adv Adversary) float64 {
	n1, ok1 := a.Corresponding(e.From)
	n2, ok2 := a.Corresponding(e.To)
	if !ok1 || !ok2 {
		return 1
	}
	if a.Graph.HasEdge(n1, n2) {
		return 0
	}
	r := (adv.FocusProbability(conn[n1])*adv.InferenceLikelihood(a.Graph.Degree(n2)) +
		adv.FocusProbability(conn[n2])*adv.InferenceLikelihood(a.Graph.Degree(n1))) / 2
	op := 1 - r
	if op < 0 {
		return 0
	}
	if op > 1 {
		return 1
	}
	return op
}

// AverageOpacityScaleFree is AverageOpacity under the scale-free reading.
func AverageOpacityScaleFree(spec *account.Spec, a *account.Account, edges []graph.EdgeID, adv Adversary) float64 {
	if len(edges) == 0 {
		return 0
	}
	conn := a.Graph.ConnectedPairsAll()
	var sum float64
	for _, e := range edges {
		sum += edgeOpacityScaleFree(a, e, conn, adv)
	}
	return sum / float64(len(edges))
}

// AverageOpacity computes the mean opacity over the given original edges
// (typically the protected ones); it returns 0 for an empty set.
func AverageOpacity(spec *account.Spec, a *account.Account, edges []graph.EdgeID, adv Adversary) float64 {
	if len(edges) == 0 {
		return 0
	}
	// Connectivity and the inference pool of the account are shared across
	// all edges; computing them once keeps large sweeps (hundreds of
	// protected edges per synthetic graph) linear instead of quadratic.
	conn := a.Graph.ConnectedPairsAll()
	ieTotal := totalInference(a, adv)
	var sum float64
	for _, e := range edges {
		sum += edgeOpacityCached(a, e, conn, ieTotal, adv)
	}
	return sum / float64(len(edges))
}

func edgeOpacityCached(a *account.Account, e graph.EdgeID, conn map[graph.NodeID]int, ieTotal float64, adv Adversary) float64 {
	n1, ok1 := a.Corresponding(e.From)
	n2, ok2 := a.Corresponding(e.To)
	if !ok1 || !ok2 {
		return 1
	}
	if a.Graph.HasEdge(n1, n2) {
		return 0
	}
	op := 1 - inferability(a, n1, n2, conn, ieTotal, adv)
	if op < 0 {
		return 0
	}
	if op > 1 {
		return 1
	}
	return op
}

// GraphOpacity computes the mean opacity over every edge of the original
// graph — the whole-graph tradeoff number of §4.2.
func GraphOpacity(spec *account.Spec, a *account.Account, adv Adversary) float64 {
	var edges []graph.EdgeID
	for _, e := range spec.Graph.Edges() {
		edges = append(edges, e.ID())
	}
	return AverageOpacity(spec, a, edges, adv)
}

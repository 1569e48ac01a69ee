package graph

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// jsonGraph is the wire representation used by MarshalJSON/UnmarshalJSON
// and by the cmd/protect CLI input format.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID       string            `json:"id"`
	Features map[string]string `json:"features,omitempty"`
}

type jsonEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Label string `json:"label,omitempty"`
}

// MarshalJSON encodes the graph as {"nodes":[...],"edges":[...]} with
// deterministic ordering.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{}
	for _, id := range g.Nodes() {
		n, _ := g.NodeByID(id)
		jg.Nodes = append(jg.Nodes, jsonNode{ID: string(n.ID), Features: n.Features})
	}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, jsonEdge{From: string(e.From), To: string(e.To), Label: e.Label})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a graph previously encoded by MarshalJSON. It
// decodes into a fresh graph and replaces the receiver's contents only on
// success; a duplicate node id is an error.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	fresh := New()
	for _, jn := range jg.Nodes {
		if jn.ID == "" {
			return fmt.Errorf("graph: decode: node with empty id")
		}
		if fresh.HasNode(NodeID(jn.ID)) {
			return fmt.Errorf("graph: decode: duplicate node %s", jn.ID)
		}
		fresh.AddNode(Node{ID: NodeID(jn.ID), Features: jn.Features})
	}
	for _, je := range jg.Edges {
		if err := fresh.AddEdge(Edge{From: NodeID(je.From), To: NodeID(je.To), Label: je.Label}); err != nil {
			return err
		}
	}
	g.slot, g.nodes, g.out, g.in, g.edges, g.free = fresh.slot, fresh.nodes, fresh.out, fresh.in, fresh.edges, fresh.free
	g.order.Store(nil)
	return nil
}

// DOT renders the graph in Graphviz dot syntax. Node feature "label" (if
// present) becomes the display label; otherwise the node id is used.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, id := range g.Nodes() {
		n, _ := g.NodeByID(id)
		label := string(id)
		if l, ok := n.Features["label"]; ok {
			label = l
		}
		fmt.Fprintf(&b, "  %q [label=%q];\n", string(id), label)
	}
	for _, e := range g.Edges() {
		if e.Label != "" {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", string(e.From), string(e.To), e.Label)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", string(e.From), string(e.To))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarises a graph for reporting: size, degree distribution and the
// reachability density used by the synthetic workload ("connected pairs").
type Stats struct {
	Nodes           int
	Edges           int
	WeakComponents  int
	MaxDegree       int
	MeanDegree      float64
	MeanReachable   float64 // avg |descendants| per node (directed)
	MeanConnected   float64 // avg |weak-component mates| per node
	IsDAG           bool
	IsolatedNodes   int
	DegreeHistogram map[int]int
}

// ComputeStats walks the whole graph once per metric; intended for offline
// reporting, not hot paths.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Nodes:           g.NumNodes(),
		Edges:           g.NumEdges(),
		DegreeHistogram: make(map[int]int),
	}
	s.WeakComponents = len(g.WeakComponents())
	s.IsDAG = g.IsDAG()
	var degSum, reachSum, connSum int
	for _, id := range g.Nodes() {
		d := g.Degree(id)
		degSum += d
		s.DegreeHistogram[d]++
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.IsolatedNodes++
		}
		reachSum += g.ConnectedCount(id, Forward)
		connSum += g.ConnectedCount(id, Undirected)
	}
	if s.Nodes > 0 {
		s.MeanDegree = float64(degSum) / float64(s.Nodes)
		s.MeanReachable = float64(reachSum) / float64(s.Nodes)
		s.MeanConnected = float64(connSum) / float64(s.Nodes)
	}
	return s
}

// String renders the stats on one line for logs and experiment tables.
func (s Stats) String() string {
	degrees := make([]int, 0, len(s.DegreeHistogram))
	for d := range s.DegreeHistogram {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	return fmt.Sprintf("nodes=%d edges=%d components=%d dag=%v meanDegree=%.2f meanReachable=%.2f",
		s.Nodes, s.Edges, s.WeakComponents, s.IsDAG, s.MeanDegree, s.MeanReachable)
}

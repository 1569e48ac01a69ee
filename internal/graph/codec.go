package graph

import (
	"encoding/json"
	"fmt"
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

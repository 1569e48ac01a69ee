package account

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// jsonAccount is the wire form of a protected account: enough to rebuild
// the account on the consumer side (graph, correspondence, scores and
// surrogate markers), without any of the original graph's hidden content.
type jsonAccount struct {
	HighWater []string          `json:"highWater"`
	Nodes     []jsonAccountNode `json:"nodes"`
	Edges     []jsonAccountEdge `json:"edges"`
}

type jsonAccountNode struct {
	ID        string            `json:"id"`
	Original  string            `json:"original"`
	Features  map[string]string `json:"features,omitempty"`
	InfoScore float64           `json:"infoScore"`
	Surrogate bool              `json:"surrogate,omitempty"`
	Null      bool              `json:"null,omitempty"`
	Lowest    string            `json:"lowest,omitempty"`
}

type jsonAccountEdge struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Label     string `json:"label,omitempty"`
	Surrogate bool   `json:"surrogate,omitempty"`
}

// MarshalJSON encodes the account deterministically.
func (a *Account) MarshalJSON() ([]byte, error) {
	ja := jsonAccount{}
	for _, p := range a.HighWater {
		ja.HighWater = append(ja.HighWater, string(p))
	}
	for _, id := range a.Graph.Nodes() {
		n, _ := a.Graph.NodeByID(id)
		jn := jsonAccountNode{
			ID:        string(id),
			Original:  string(a.ToOriginal[id]),
			Features:  n.Features,
			InfoScore: a.InfoScore[id],
		}
		if s, ok := a.SurrogateNodes[id]; ok {
			jn.Surrogate = true
			jn.Null = s.IsNull
			jn.Lowest = string(s.Lowest)
		}
		ja.Nodes = append(ja.Nodes, jn)
	}
	for _, e := range a.Graph.Edges() {
		ja.Edges = append(ja.Edges, jsonAccountEdge{
			From:      string(e.From),
			To:        string(e.To),
			Label:     e.Label,
			Surrogate: a.SurrogateEdges[e.ID()],
		})
	}
	return json.Marshal(ja)
}

// UnmarshalJSON rebuilds an account from its wire form. The resulting
// account carries everything the measures and renderers need; it does not
// (and cannot) restore the original graph.
func (a *Account) UnmarshalJSON(data []byte) error {
	var ja jsonAccount
	if err := json.Unmarshal(data, &ja); err != nil {
		return fmt.Errorf("account: decode: %w", err)
	}
	fresh := newAccount(graph.New(), nil, 0)
	for _, p := range ja.HighWater {
		fresh.HighWater = append(fresh.HighWater, privilege.Predicate(p))
	}
	if len(fresh.HighWater) == 1 {
		fresh.Target = fresh.HighWater[0]
	}
	for _, jn := range ja.Nodes {
		if jn.ID == "" || jn.Original == "" {
			return fmt.Errorf("account: decode: node missing id or original")
		}
		id := graph.NodeID(jn.ID)
		orig := graph.NodeID(jn.Original)
		if _, dup := fresh.ToOriginal[id]; dup {
			return fmt.Errorf("account: decode: duplicate node %s", id)
		}
		if _, dup := fresh.FromOriginal[orig]; dup {
			return fmt.Errorf("account: decode: original %s mapped twice", orig)
		}
		feats := graph.Features(jn.Features)
		fresh.Graph.AddNode(graph.Node{ID: id, Features: feats})
		fresh.ToOriginal[id] = orig
		fresh.FromOriginal[orig] = id
		fresh.InfoScore[id] = jn.InfoScore
		if jn.Surrogate {
			fresh.SurrogateNodes[id] = surrogate.Surrogate{
				ID:        id,
				Features:  feats,
				Lowest:    privilege.Predicate(jn.Lowest),
				InfoScore: jn.InfoScore,
				IsNull:    jn.Null,
			}
		}
	}
	for _, je := range ja.Edges {
		e := graph.Edge{From: graph.NodeID(je.From), To: graph.NodeID(je.To), Label: je.Label}
		if err := fresh.Graph.AddEdge(e); err != nil {
			return err
		}
		if je.Surrogate {
			fresh.SurrogateEdges[e.ID()] = true
		}
	}
	*a = *fresh
	return nil
}

// DOT renders the account in Graphviz syntax: surrogate nodes are drawn
// dashed and grey, surrogate edges dashed — the visual convention of the
// paper's Figure 2.
func (a *Account) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, id := range a.Graph.Nodes() {
		n, _ := a.Graph.NodeByID(id)
		label := string(id)
		if l, ok := n.Features["name"]; ok {
			label = l
		}
		if _, ok := a.SurrogateNodes[id]; ok {
			fmt.Fprintf(&b, "  %q [label=%q, style=\"dashed\", color=\"grey40\"];\n", string(id), label)
		} else {
			fmt.Fprintf(&b, "  %q [label=%q];\n", string(id), label)
		}
	}
	for _, e := range a.Graph.Edges() {
		attrs := ""
		if a.SurrogateEdges[e.ID()] {
			attrs = " [style=\"dashed\"]"
		} else if e.Label != "" {
			attrs = fmt.Sprintf(" [label=%q]", e.Label)
		}
		fmt.Fprintf(&b, "  %q -> %q%s;\n", string(e.From), string(e.To), attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// SyntheticConfig parameterises one §6.1.2 synthetic graph.
type SyntheticConfig struct {
	// Nodes is the graph size; the paper uses 200.
	Nodes int
	// TargetConnected is the desired average number of connected pairs per
	// node: |ancestors ∪ descendants|, the §4.1 connectivity notion — the
	// only reading under which the paper's 30–100 range is attainable in a
	// weakly connected graph (see DESIGN.md). The generator adds edges
	// until the average meets or exceeds the target.
	TargetConnected float64
	// ProtectFraction in [0,1] selects the share of edges to protect
	// (10%–90% in the paper).
	ProtectFraction float64
	// Seed drives the deterministic RNG.
	Seed int64
}

// Synthetic is a generated evaluation graph plus its protected edge set.
type Synthetic struct {
	Config    SyntheticConfig
	Graph     *graph.Graph
	Protected []graph.EdgeID
	// MeanConnected is the achieved average connected pairs per node.
	MeanConnected float64
}

func (c SyntheticConfig) validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("workload: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.TargetConnected < 1 || c.TargetConnected > float64(c.Nodes-1) {
		return fmt.Errorf("workload: target connected pairs %.1f out of range [1,%d]", c.TargetConnected, c.Nodes-1)
	}
	if c.ProtectFraction < 0 || c.ProtectFraction > 1 {
		return fmt.Errorf("workload: protect fraction %v out of [0,1]", c.ProtectFraction)
	}
	return nil
}

// meanConnectedPairs is the average |ancestors ∪ descendants| per node.
func meanConnectedPairs(g *graph.Graph) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	var sum int
	for _, c := range g.ConnectedPairsAll() {
		sum += c
	}
	return float64(sum) / float64(g.NumNodes())
}

// GenerateSynthetic builds one synthetic graph with the §6.1.2 properties:
// directed, acyclic, no disconnected subgraphs, with edge density tuned
// until the average connected pairs per node reaches the target, and a
// random ProtectFraction share of edges selected for protection.
//
// Construction: nodes are ranked 0..n-1 and edges only go from lower to
// higher rank (acyclicity); a random spanning arborescence guarantees weak
// connectivity; random forward edges are then added in batches until the
// reachability target is met.
func GenerateSynthetic(cfg SyntheticConfig) (*Synthetic, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Nodes
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(fmt.Sprintf("n%03d", i))
		g.AddNodeID(ids[i])
	}
	// Spanning structure: every node i > 0 receives an edge from a random
	// earlier node, keeping the graph weakly connected from the start.
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		g.MustAddEdge(ids[j], ids[i])
	}

	// Density tuning: add forward edges until the reachability target is
	// met. Batch size scales with n to keep the retune loop short.
	maxEdges := n * (n - 1) / 2
	batch := n / 4
	if batch < 8 {
		batch = 8
	}
	mean := meanConnectedPairs(g)
	for mean < cfg.TargetConnected && g.NumEdges() < maxEdges {
		for added := 0; added < batch && g.NumEdges() < maxEdges; {
			i := r.Intn(n - 1)
			j := i + 1 + r.Intn(n-i-1)
			if g.HasEdge(ids[i], ids[j]) {
				continue
			}
			g.MustAddEdge(ids[i], ids[j])
			added++
		}
		mean = meanConnectedPairs(g)
	}

	// Protected edge selection: a deterministic shuffle of the edge set.
	edges := g.Edges()
	r.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
	k := int(cfg.ProtectFraction*float64(len(edges)) + 0.5)
	protected := make([]graph.EdgeID, 0, k)
	for _, e := range edges[:k] {
		protected = append(protected, e.ID())
	}

	return &Synthetic{Config: cfg, Graph: g, Protected: protected, MeanConnected: mean}, nil
}

// PaperGrid returns the 50 synthetic configurations of §6.1.2: five
// protection levels (10%–90%) crossed with ten connectedness targets
// (30–100 average connected pairs), 200 nodes each. Seeds are derived from
// the grid position so the suite is reproducible.
func PaperGrid() []SyntheticConfig {
	fractions := []float64{0.10, 0.30, 0.50, 0.70, 0.90}
	var cfgs []SyntheticConfig
	for fi, f := range fractions {
		for ci := 0; ci < 10; ci++ {
			target := 30 + float64(ci)*(100-30)/9
			cfgs = append(cfgs, SyntheticConfig{
				Nodes:           200,
				TargetConnected: target,
				ProtectFraction: f,
				Seed:            int64(1000 + fi*100 + ci),
			})
		}
	}
	return cfgs
}

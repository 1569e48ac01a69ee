package workload

import (
	"testing"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// weaklyConnected reports whether g has at most one weak component.
func weaklyConnected(g *graph.Graph) bool {
	ids := g.Nodes()
	return len(ids) == 0 || len(g.Reachable(ids[0], graph.Undirected)) == len(ids)-1
}

// longestPath runs Kahn's algorithm over g: it returns the length in edges
// of g's longest directed path and whether g is acyclic.
func longestPath(g *graph.Graph) (int, bool) {
	indeg := map[graph.NodeID]int{}
	dist := map[graph.NodeID]int{}
	var queue []graph.NodeID
	for _, id := range g.Nodes() {
		if indeg[id] = len(g.Predecessors(id)); indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	longest, done := 0, 0
	for ; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		done++
		longest = max(longest, dist[cur])
		for _, next := range g.Successors(cur) {
			dist[next] = max(dist[next], dist[cur]+1)
			if indeg[next]--; indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	return longest, done == g.NumNodes()
}

func TestMotifsWellFormed(t *testing.T) {
	motifs := Motifs()
	if len(motifs) != 7 {
		t.Fatalf("motifs = %d, want 7", len(motifs))
	}
	names := map[string]bool{}
	for _, m := range motifs {
		if names[m.Name] {
			t.Errorf("duplicate motif name %s", m.Name)
		}
		names[m.Name] = true
		if n := m.Graph.NumNodes(); n < 4 || n > 5 {
			t.Errorf("%s has %d nodes, want 4-5 (§6.1.1)", m.Name, n)
		}
		if !weaklyConnected(m.Graph) {
			t.Errorf("%s is not weakly connected", m.Name)
		}
		if _, acyclic := longestPath(m.Graph); !acyclic {
			t.Errorf("%s is not acyclic", m.Name)
		}
		if _, ok := m.Graph.EdgeByID(m.Protected); !ok {
			t.Errorf("%s protected edge %s missing", m.Name, m.Protected)
		}
	}
	for _, want := range []string{"Star", "Chain", "Lattice", "Diamond", "Tree", "InvertedTree", "Bipartite"} {
		if !names[want] {
			t.Errorf("missing motif %s", want)
		}
	}
}

// protect generates hide and surrogate accounts for a motif.
func protect(t *testing.T, m Motif) (hideSpec, surrSpec *account.Spec, hide, surr *account.Account) {
	t.Helper()
	var err error
	hideSpec, err = ProtectSpec(m.Graph, []graph.EdgeID{m.Protected}, false)
	if err != nil {
		t.Fatal(err)
	}
	surrSpec, err = ProtectSpec(m.Graph, []graph.EdgeID{m.Protected}, true)
	if err != nil {
		t.Fatal(err)
	}
	hide, err = account.Generate(hideSpec, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	surr, err = account.Generate(surrSpec, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	return hideSpec, surrSpec, hide, surr
}

// §6.2: surrogating differs from hiding for every motif except Bipartite
// and Lattice, where the accounts coincide.
func TestMotifSurrogateVsHideShape(t *testing.T) {
	for _, m := range Motifs() {
		_, _, hide, surr := protect(t, m)
		if !hide.Graph.HasNode(graph.NodeID(m.Protected.From)) {
			t.Errorf("%s: protected edge source missing from account", m.Name)
		}
		if hide.Graph.HasEdge(m.Protected.From, m.Protected.To) ||
			surr.Graph.HasEdge(m.Protected.From, m.Protected.To) {
			t.Errorf("%s: protected edge leaked", m.Name)
		}
		same := hide.Graph.Equal(surr.Graph)
		wantSame := m.Name == "Bipartite" || m.Name == "Lattice"
		if same != wantSame {
			t.Errorf("%s: hide==surrogate is %v, want %v\nhide: %v\nsurr: %v",
				m.Name, same, wantSame, hide.Graph.Edges(), surr.Graph.Edges())
		}
	}
}

// The protected consumer always sees the full motif.
func TestMotifProtectedConsumerSeesAll(t *testing.T) {
	for _, m := range Motifs() {
		spec, err := ProtectSpec(m.Graph, []graph.EdgeID{m.Protected}, true)
		if err != nil {
			t.Fatal(err)
		}
		a, err := account.Generate(spec, ProtectedPredicate)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Graph.Equal(m.Graph) {
			t.Errorf("%s: protected consumer account differs from G", m.Name)
		}
	}
}

// Motif utility/opacity differences are never negative (the paper's §6.2
// headline: surrogating is at least as good as hiding on both axes).
func TestMotifDifferencesNonNegative(t *testing.T) {
	adv := measure.Figure5()
	for _, m := range Motifs() {
		hs, ss, hide, surr := protect(t, m)
		du := measure.PathUtility(ss, surr) - measure.PathUtility(hs, hide)
		do := measure.EdgeOpacity(ss, surr, m.Protected, adv) - measure.EdgeOpacity(hs, hide, m.Protected, adv)
		if du < -1e-9 || do < -1e-9 {
			t.Errorf("%s: Δutility=%v Δopacity=%v, want both >= 0", m.Name, du, do)
		}
		zero := m.Name == "Bipartite" || m.Name == "Lattice"
		if zero && (du > 1e-9 || do > 1e-9) {
			t.Errorf("%s: expected zero differences, got Δutility=%v Δopacity=%v", m.Name, du, do)
		}
		if !zero && du <= 1e-9 && do <= 1e-9 {
			t.Errorf("%s: expected some positive difference, got Δutility=%v Δopacity=%v", m.Name, du, do)
		}
	}
}

func TestProtectSpecValidation(t *testing.T) {
	m := Motifs()[0]
	if _, err := ProtectSpec(m.Graph, []graph.EdgeID{{From: "zz", To: "qq"}}, true); err == nil {
		t.Error("missing protected edge accepted")
	}
}

func TestGenerateSyntheticProperties(t *testing.T) {
	cfg := SyntheticConfig{Nodes: 100, TargetConnected: 25, ProtectFraction: 0.3, Seed: 7}
	s, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph.NumNodes() != 100 {
		t.Errorf("nodes = %d", s.Graph.NumNodes())
	}
	if !weaklyConnected(s.Graph) {
		t.Error("synthetic graph disconnected (§6.1.2 requires none)")
	}
	if _, acyclic := longestPath(s.Graph); !acyclic {
		t.Error("synthetic graph has a cycle")
	}
	if s.MeanConnected < cfg.TargetConnected {
		t.Errorf("mean connected %.1f below target %.1f", s.MeanConnected, cfg.TargetConnected)
	}
	wantProt := int(0.3*float64(s.Graph.NumEdges()) + 0.5)
	if len(s.Protected) != wantProt {
		t.Errorf("protected = %d, want %d", len(s.Protected), wantProt)
	}
	seen := map[graph.EdgeID]bool{}
	for _, e := range s.Protected {
		if seen[e] {
			t.Errorf("duplicate protected edge %s", e)
		}
		seen[e] = true
		if _, ok := s.Graph.EdgeByID(e); !ok {
			t.Errorf("protected edge %s not in graph", e)
		}
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{Nodes: 60, TargetConnected: 15, ProtectFraction: 0.5, Seed: 42}
	a, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Graph.Equal(b.Graph) {
		t.Error("same seed produced different graphs")
	}
	if len(a.Protected) != len(b.Protected) {
		t.Fatal("protected sets differ in size")
	}
	for i := range a.Protected {
		if a.Protected[i] != b.Protected[i] {
			t.Errorf("protected[%d] differs: %s vs %s", i, a.Protected[i], b.Protected[i])
		}
	}
	c, err := GenerateSynthetic(SyntheticConfig{Nodes: 60, TargetConnected: 15, ProtectFraction: 0.5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.Equal(c.Graph) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGenerateSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Nodes: 1, TargetConnected: 1, ProtectFraction: 0.5},
		{Nodes: 10, TargetConnected: 0.5, ProtectFraction: 0.5},
		{Nodes: 10, TargetConnected: 50, ProtectFraction: 0.5},
		{Nodes: 10, TargetConnected: 5, ProtectFraction: 1.5},
		{Nodes: 10, TargetConnected: 5, ProtectFraction: -0.1},
	}
	for i, cfg := range bad {
		if _, err := GenerateSynthetic(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestProtectSpecSide(t *testing.T) {
	m := Motifs()[1] // chain a->b->c->d->e, protect a->b
	// Destination-side: surrogate edge a->c. Source-side: a has no
	// predecessors, so no surrogate edge at all.
	dst, err := ProtectSpecSide(m.Graph, []graph.EdgeID{m.Protected}, true, policy.DstSide)
	if err != nil {
		t.Fatal(err)
	}
	aDst, err := account.Generate(dst, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	if !aDst.Graph.HasEdge("a", "c") {
		t.Errorf("dst-side: missing a->c: %v", aDst.Graph.Edges())
	}
	src, err := ProtectSpecSide(m.Graph, []graph.EdgeID{m.Protected}, true, policy.SrcSide)
	if err != nil {
		t.Fatal(err)
	}
	aSrc, err := account.Generate(src, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	if len(aSrc.SurrogateEdges) != 0 {
		t.Errorf("src-side on a root edge should contract to nothing: %v", aSrc.Graph.Edges())
	}
	if _, err := ProtectSpecSide(m.Graph, []graph.EdgeID{{From: "zz", To: "qq"}}, true, policy.DstSide); err == nil {
		t.Error("missing edge accepted")
	}
}

func TestNodeProtectSpec(t *testing.T) {
	m := Motifs()[1] // chain
	spec, err := NodeProtectSpec(m.Graph, []graph.NodeID{"c"}, false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := account.Generate(spec, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.HasNode("c") {
		t.Error("protected node visible")
	}
	if !a.Graph.HasEdge("b", "d") {
		t.Errorf("connectivity through c not summarised: %v", a.Graph.Edges())
	}

	withNull, err := NodeProtectSpec(m.Graph, []graph.NodeID{"c"}, true)
	if err != nil {
		t.Fatal(err)
	}
	an, err := account.Generate(withNull, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	nullID := surrogate.NullID("c")
	if !an.Graph.HasNode(nullID) {
		t.Fatalf("null placeholder missing: %v", an.Graph.Nodes())
	}
	if !an.Graph.HasEdge("b", nullID) || !an.Graph.HasEdge(nullID, "d") {
		t.Errorf("edges should attach to the null placeholder: %v", an.Graph.Edges())
	}

	if _, err := NodeProtectSpec(m.Graph, []graph.NodeID{"zz"}, false); err == nil {
		t.Error("missing node accepted")
	}
}

func TestSelectNodes(t *testing.T) {
	m := Motifs()[1]
	picked := SelectNodes(m.Graph, 0.4, 1)
	if len(picked) != 2 {
		t.Errorf("picked = %v, want 2 of 5", picked)
	}
	for _, id := range picked {
		if !m.Graph.HasNode(id) {
			t.Errorf("picked unknown node %s", id)
		}
	}
	again := SelectNodes(m.Graph, 0.4, 1)
	for i := range picked {
		if picked[i] != again[i] {
			t.Error("same seed picked different nodes")
		}
	}
	other := SelectNodes(m.Graph, 0.4, 2)
	same := len(other) == len(picked)
	if same {
		for i := range other {
			if other[i] != picked[i] {
				same = false
			}
		}
	}
	if same {
		t.Log("different seeds picked the same nodes (possible on tiny graphs)")
	}
	if got := SelectNodes(m.Graph, 2.0, 1); len(got) != m.Graph.NumNodes() {
		t.Errorf("overlarge fraction should cap at all nodes, got %d", len(got))
	}
}

func TestPaperGrid(t *testing.T) {
	grid := PaperGrid()
	if len(grid) != 50 {
		t.Fatalf("grid size = %d, want 50", len(grid))
	}
	seeds := map[int64]bool{}
	fractions := map[float64]int{}
	for _, cfg := range grid {
		if cfg.Nodes != 200 {
			t.Errorf("grid nodes = %d, want 200", cfg.Nodes)
		}
		if cfg.TargetConnected < 30 || cfg.TargetConnected > 100 {
			t.Errorf("target %.1f out of 30-100", cfg.TargetConnected)
		}
		if seeds[cfg.Seed] {
			t.Errorf("duplicate seed %d", cfg.Seed)
		}
		seeds[cfg.Seed] = true
		fractions[cfg.ProtectFraction]++
	}
	if len(fractions) != 5 {
		t.Errorf("protection levels = %d, want 5", len(fractions))
	}
	for f, n := range fractions {
		if n != 10 {
			t.Errorf("fraction %v has %d graphs, want 10 (§6.1.2)", f, n)
		}
	}
}

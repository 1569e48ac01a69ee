package workload

import (
	"testing"

	"repro/internal/graph"
)

func familyCfg(seed int64) SyntheticConfig {
	return SyntheticConfig{Nodes: 100, TargetConnected: 20, ProtectFraction: 0.3, Seed: seed}
}

func TestGenerateFamilyInvariants(t *testing.T) {
	for _, fam := range Families() {
		syn, err := GenerateFamily(fam, familyCfg(5))
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		g := syn.Graph
		if g.NumNodes() != 100 {
			t.Errorf("%s: nodes = %d", fam, g.NumNodes())
		}
		if _, acyclic := longestPath(g); !acyclic {
			t.Errorf("%s: cyclic", fam)
		}
		if !weaklyConnected(g) {
			t.Errorf("%s: disconnected", fam)
		}
		wantProt := int(0.3*float64(g.NumEdges()) + 0.5)
		if len(syn.Protected) != wantProt {
			t.Errorf("%s: protected = %d, want %d", fam, len(syn.Protected), wantProt)
		}
		if syn.MeanConnected <= 0 {
			t.Errorf("%s: mean connected = %v", fam, syn.MeanConnected)
		}
	}
	if _, err := GenerateFamily("banana", familyCfg(5)); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestGenerateFamilyDeterministic(t *testing.T) {
	for _, fam := range Families() {
		a, err := GenerateFamily(fam, familyCfg(9))
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateFamily(fam, familyCfg(9))
		if err != nil {
			t.Fatal(err)
		}
		if !a.Graph.Equal(b.Graph) {
			t.Errorf("%s: same seed produced different graphs", fam)
		}
	}
}

func TestFamilyShapesDiffer(t *testing.T) {
	layered, err := GenerateFamily(FamilyLayered, familyCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	scaleFree, err := GenerateFamily(FamilyScaleFree, familyCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	// Scale-free graphs have hubs: a markedly higher max degree than the
	// layered family at similar size.
	maxDeg := func(g *graph.Graph) int {
		m := 0
		for _, id := range g.Nodes() {
			if d := g.Degree(id); d > m {
				m = d
			}
		}
		return m
	}
	if maxDeg(scaleFree.Graph) <= maxDeg(layered.Graph) {
		t.Errorf("scale-free max degree %d should exceed layered %d",
			maxDeg(scaleFree.Graph), maxDeg(layered.Graph))
	}
	// Layered graphs have a long directed diameter relative to layers.
	l, ok := longestPath(layered.Graph)
	if !ok || l < 5 {
		t.Errorf("layered longest path = %d, want >= 5", l)
	}
}

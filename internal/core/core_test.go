package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// builderFixture: a -> secret -> b with a surrogate for the secret node.
func builderFixture() *Builder {
	lat := privilege.TwoLevel()
	return NewBuilder(lat).
		Node("a", "", graph.Features{"name": "alpha"}).
		Node("secret", "Protected", graph.Features{"name": "the source"}).
		Node("b", "", nil).
		Edge("a", "secret", "knows").
		Edge("secret", "b", "knows").
		ProtectRole("secret", Surrogate).
		WithSurrogate("secret", surrogate.Surrogate{
			ID: "secret'", Lowest: privilege.Public, InfoScore: 0.5,
		})
}

func TestBuilderAndProtect(t *testing.T) {
	spec, err := builderFixture().Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Protect(spec, privilege.Public, Surrogate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Account.Graph.HasNode("secret") {
		t.Error("sensitive node leaked")
	}
	if !res.Account.Graph.HasNode("secret'") {
		t.Error("surrogate node missing")
	}
	if !res.Account.Graph.HasEdge("a", "b") {
		t.Errorf("surrogate edge missing: %v", res.Account.Graph.Edges())
	}
	if res.Utility.Path <= 0 || res.Utility.Path > 1 {
		t.Errorf("path utility = %v", res.Utility.Path)
	}
	if res.Utility.Node <= 0 || res.Utility.Node > 1 {
		t.Errorf("node utility = %v", res.Utility.Node)
	}
	if res.GraphOpacity < 0 || res.GraphOpacity > 1 {
		t.Errorf("graph opacity = %v", res.GraphOpacity)
	}
}

// TestBuilderNodeCopiesFeatures holds Builder.Node and
// Builder.WithSurrogate to their promise that the caller keeps its map:
// writing into the map after the call, before and after Spec, leaves the
// built graph and registry as they were given.
func TestBuilderNodeCopiesFeatures(t *testing.T) {
	feats := graph.Features{"name": "alpha"}
	surr := graph.Features{"name": "anon"}
	b := NewBuilder(privilege.TwoLevel()).Node("a", "Protected", feats).
		WithSurrogate("a", surrogate.Surrogate{ID: "a'", Features: surr, Lowest: privilege.Public, InfoScore: 0.5})
	feats["name"] = "changed"
	feats["extra"] = "x"
	surr["name"] = "changed"
	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	delete(feats, "name")
	delete(surr, "name")
	n, ok := spec.Graph.NodeByID("a")
	if !ok {
		t.Fatal("node a missing")
	}
	if want := (graph.Features{"name": "alpha"}); !n.Features.Equal(want) {
		t.Errorf("features of a = %v, want %v", n.Features, want)
	}
	if ss := spec.Surrogates.Surrogates("a"); len(ss) != 1 || !ss[0].Features.Equal(graph.Features{"name": "anon"}) {
		t.Errorf("surrogates of a = %+v, want one with features name=anon", ss)
	}
}

func TestProtectHideMode(t *testing.T) {
	spec, err := builderFixture().Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Protect(spec, privilege.Public, Hide)
	if err != nil {
		t.Fatal(err)
	}
	if res.Account.Graph.NumNodes() != 2 || res.Account.Graph.NumEdges() != 0 {
		t.Errorf("hide account = %v / %v", res.Account.Graph.Nodes(), res.Account.Graph.Edges())
	}
}

func TestCompare(t *testing.T) {
	spec, err := builderFixture().Spec()
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(spec, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.DeltaPathUtility() <= 0 {
		t.Errorf("surrogate should beat hide on utility: %v", cmp.DeltaPathUtility())
	}
	// With the whole node hidden, its incident edges hit the Figure 4
	// fixed point opacity=1, so hide maximises whole-graph opacity here;
	// surrogating trades a little opacity for a lot of utility. (The
	// surrogate-beats-hide opacity claim of §6 concerns edge protection,
	// covered by the eval tests.)
	if cmp.Hide.GraphOpacity != 1 {
		t.Errorf("hide graph opacity = %v, want 1 (absent endpoints)", cmp.Hide.GraphOpacity)
	}
	if cmp.Surrogate.GraphOpacity <= 0 || cmp.Surrogate.GraphOpacity > 1 {
		t.Errorf("surrogate graph opacity = %v", cmp.Surrogate.GraphOpacity)
	}
	if cmp.Hide.Mode != Hide || cmp.Surrogate.Mode != Surrogate {
		t.Error("modes mislabeled")
	}
}

func TestBuilderCollectsErrors(t *testing.T) {
	lat := privilege.TwoLevel()
	b := NewBuilder(lat).
		Node("a", "", nil).
		Edge("a", "missing", ""). // dangling edge
		Node("x", "Bogus", nil)   // unknown predicate
	if _, err := b.Spec(); err == nil {
		t.Error("builder errors not reported")
	}
}

func TestProtectEdgeViaBuilder(t *testing.T) {
	lat := privilege.TwoLevel()
	b := NewBuilder(lat).
		Node("a", "", nil).Node("b", "", nil).Node("c", "", nil).
		Edge("a", "b", "").Edge("b", "c", "").
		ProtectEdge("a", "b", "Protected", Surrogate)
	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Protect(spec, privilege.Public, Surrogate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Account.Graph.HasEdge("a", "b") || !res.Account.Graph.HasEdge("a", "c") {
		t.Errorf("edge protection wrong: %v", res.Account.Graph.Edges())
	}
}

func TestWithNullDefaults(t *testing.T) {
	lat := privilege.TwoLevel()
	b := NewBuilder(lat).
		Node("a", "", nil).
		Node("secret", "Protected", nil).
		Node("b", "", nil).
		Edge("a", "secret", "").Edge("secret", "b", "")
	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Surrogates.EnableNullDefault()
	res, err := Protect(spec, privilege.Public, Surrogate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Account.Graph.HasNode(surrogate.NullID("secret")) {
		t.Errorf("null surrogate missing: %v", res.Account.Graph.Nodes())
	}
}

func TestModeString(t *testing.T) {
	if Hide.String() != "hide" || Surrogate.String() != "surrogate" {
		t.Error("mode strings wrong")
	}
}

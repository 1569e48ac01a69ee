package measure

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// randomMeasureSpec builds a random DAG with random protections, mirroring
// the account package's generator but local to these tests.
func randomMeasureSpec(r *rand.Rand) *account.Spec {
	n := 4 + r.Intn(8)
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(fmt.Sprintf("m%02d", i))
		g.AddNodeID(ids[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.35 {
				g.MustAddEdge(ids[i], ids[j])
			}
		}
	}
	lat := privilege.TwoLevel()
	lb := privilege.NewLabeling(lat)
	pol := policy.New(lat)
	reg := surrogate.NewRegistry(lb)
	for _, id := range ids {
		if r.Float64() < 0.3 {
			if err := lb.SetNode(id, "Protected"); err != nil {
				panic(err)
			}
			if r.Intn(2) == 0 {
				if err := pol.SetNodeThreshold(id, "Protected", policy.Surrogate); err != nil {
					panic(err)
				}
			}
			if r.Intn(2) == 0 {
				if err := reg.Add(id, surrogate.Surrogate{
					ID: id + "'", Lowest: privilege.Public, InfoScore: float64(r.Intn(11)) / 10,
				}); err != nil {
					panic(err)
				}
			}
		}
	}
	for _, e := range g.Edges() {
		if r.Float64() < 0.25 {
			if err := pol.ProtectEdge(e.ID(), "Protected", r.Intn(2) == 0); err != nil {
				panic(err)
			}
		}
	}
	return &account.Spec{Graph: g, Labeling: lb, Policy: pol, Surrogates: reg}
}

// Property: utilities are in [0,1]; the full-privilege account scores
// exactly 1 on both; the surrogate account's path utility is never below
// the hide account's.
func TestUtilityInvariantsProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomMeasureSpec(r)
		full, err := account.Generate(spec, "Protected")
		if err != nil {
			return false
		}
		if u := Utilities(spec, full); u.Path != 1 || u.Node != 1 {
			t.Logf("seed %d: full-privilege utilities %v", seed, u)
			return false
		}
		hide, err := account.GenerateHide(spec, privilege.Public)
		if err != nil {
			return false
		}
		surr, err := account.Generate(spec, privilege.Public)
		if err != nil {
			return false
		}
		uh, us := Utilities(spec, hide), Utilities(spec, surr)
		for _, u := range []Utility{uh, us} {
			if u.Path < 0 || u.Path > 1+1e-12 || u.Node < 0 || u.Node > 1+1e-12 {
				t.Logf("seed %d: utilities out of range %v", seed, u)
				return false
			}
		}
		if us.Path < uh.Path-1e-12 {
			t.Logf("seed %d: surrogate path utility %v below hide %v", seed, us.Path, uh.Path)
			return false
		}
		if us.Node < uh.Node-1e-12 {
			t.Logf("seed %d: surrogate node utility %v below hide %v", seed, us.Node, uh.Node)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: opacity respects its fixed points and bounds for every edge of
// every random account, under both formula readings and both adversaries.
func TestOpacityInvariantsProperty(t *testing.T) {
	advs := []Adversary{Figure5(), Naive{}}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomMeasureSpec(r)
		a, err := account.Generate(spec, privilege.Public)
		if err != nil {
			return false
		}
		for _, e := range spec.Graph.Edges() {
			id := e.ID()
			n1, ok1 := a.Corresponding(id.From)
			n2, ok2 := a.Corresponding(id.To)
			for _, adv := range advs {
				for _, op := range []float64{
					EdgeOpacity(spec, a, id, adv),
					edgeOpacityScaleFree(a, id, a.Graph.ConnectedPairsAll(), adv),
				} {
					if op < 0 || op > 1 {
						t.Logf("seed %d: opacity %v out of range for %s", seed, op, id)
						return false
					}
					if (!ok1 || !ok2) && op != 1 {
						t.Logf("seed %d: absent endpoint but opacity %v for %s", seed, op, id)
						return false
					}
					if ok1 && ok2 && a.Graph.HasEdge(n1, n2) && op != 0 {
						t.Logf("seed %d: shown edge but opacity %v for %s", seed, op, id)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// connectedPairs is |ancestors ∪ descendants| of one node, walked on its
// own: the per-node count graph.ConnectedPairsAll replaces.
func connectedPairs(g *graph.Graph, id graph.NodeID) int {
	union := g.Reachable(id, graph.Forward)
	for n := range g.Reachable(id, graph.Backward) {
		union[n] = true
	}
	return len(union)
}

// referencePathUtility is Figure 3a computed the slow way: %P(n) from the
// single-node connectedPairs on both graphs, summed in sorted node order
// like PathUtility.
func referencePathUtility(spec *account.Spec, a *account.Account) float64 {
	if spec.Graph.NumNodes() == 0 {
		return 0
	}
	var sum float64
	for _, n := range spec.Graph.Nodes() {
		id, ok := a.Corresponding(n)
		switch denom := connectedPairs(spec.Graph, n); {
		case !ok:
		case denom == 0:
			sum++
		default:
			sum += float64(connectedPairs(a.Graph, id)) / float64(denom)
		}
	}
	return sum / float64(spec.Graph.NumNodes())
}

// referenceOpacity is Figure 4 with both candidate pools re-summed per
// edge, the literal reading inferability's shared total replaces.
func referenceOpacity(a *account.Account, e graph.EdgeID, adv Adversary) float64 {
	n1, ok1 := a.Corresponding(e.From)
	n2, ok2 := a.Corresponding(e.To)
	if !ok1 || !ok2 {
		return 1
	}
	if a.Graph.HasEdge(n1, n2) {
		return 0
	}
	if a.Graph.NumNodes() < 2 {
		return 1
	}
	pool := func(skip graph.NodeID) float64 {
		var sum float64
		for _, m := range a.Graph.Nodes() {
			if m != skip {
				sum += adv.InferenceLikelihood(a.Graph.Degree(m))
			}
		}
		return sum
	}
	var r float64
	if s := pool(n1); s > 0 {
		r += adv.FocusProbability(connectedPairs(a.Graph, n1)) * adv.InferenceLikelihood(a.Graph.Degree(n2)) / s
	}
	if s := pool(n2); s > 0 {
		r += adv.FocusProbability(connectedPairs(a.Graph, n2)) * adv.InferenceLikelihood(a.Graph.Degree(n1)) / s
	}
	return 1 - r/2
}

// Property: the all-nodes kernel leaves the utilities bit-identical to
// the per-node reference (==, not approx: the counts are integers and the
// sum order is unchanged), and the shared inference pool keeps every edge
// opacity within the suite's eps of the literal formula.
func TestMeasuresMatchPerNodeReference(t *testing.T) {
	advs := []Adversary{Figure5(), Naive{}}
	for seed := int64(0); seed < 150; seed++ {
		spec := randomMeasureSpec(rand.New(rand.NewSource(seed)))
		surr, err := account.Generate(spec, privilege.Public)
		if err != nil {
			t.Fatal(err)
		}
		hide, err := account.GenerateHide(spec, privilege.Public)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*account.Account{surr, hide} {
			want := Utility{Path: referencePathUtility(spec, a), Node: NodeUtility(spec, a)}
			if got := Utilities(spec, a); got != want {
				t.Fatalf("seed %d: Utilities = %v, per-node reference %v", seed, got, want)
			}
			for _, adv := range advs {
				for _, e := range spec.Graph.Edges() {
					got, want := EdgeOpacity(spec, a, e.ID(), adv), referenceOpacity(a, e.ID(), adv)
					if !approx(got, want) {
						t.Fatalf("seed %d: EdgeOpacity(%s) = %v, literal formula %v", seed, e.ID(), got, want)
					}
				}
			}
		}
	}
}

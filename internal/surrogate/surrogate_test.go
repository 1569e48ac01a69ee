package surrogate

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/privilege"
)

// fixture: Figure 1 lattice; node f has lowest=High-2 so surrogates must
// not dominate High-2.
func fixture(t *testing.T) (*privilege.Labeling, *Registry) {
	t.Helper()
	lb := privilege.NewLabeling(privilege.FigureOneLattice())
	if err := lb.SetNode("f", "High-2"); err != nil {
		t.Fatal(err)
	}
	return lb, NewRegistry(lb)
}

func TestAddValidSurrogate(t *testing.T) {
	_, r := fixture(t)
	s := Surrogate{ID: "f'", Features: graph.Features{"desc": "a trusted source"}, Lowest: "Low-2", InfoScore: 0.6}
	if err := r.Add("f", s); err != nil {
		t.Fatal(err)
	}
	got := r.Surrogates("f")
	if len(got) != 1 || got[0].ID != "f'" {
		t.Fatalf("Surrogates(f) = %v", got)
	}
	if orig := r.ids["f'"]; orig != "f" {
		t.Errorf("f' registered for %q, want f", orig)
	}
}

func TestAddRejectsDominatingLowest(t *testing.T) {
	_, r := fixture(t)
	// lowest(f)=High-2; a surrogate at High-2 dominates (reflexively) and
	// must be rejected.
	err := r.Add("f", Surrogate{ID: "f'", Lowest: "High-2", InfoScore: 0.9})
	if err == nil || !strings.Contains(err.Error(), "dominates") {
		t.Errorf("dominating surrogate accepted: %v", err)
	}
}

func TestAddAllowsIncomparableLowest(t *testing.T) {
	_, r := fixture(t)
	// High-1 is incomparable with lowest(f)=High-2 — explicitly allowed
	// (§3.1 note).
	if err := r.Add("f", Surrogate{ID: "f'", Lowest: "High-1", InfoScore: 0.9}); err != nil {
		t.Errorf("incomparable surrogate rejected: %v", err)
	}
}

func TestAddValidation(t *testing.T) {
	_, r := fixture(t)
	if err := r.Add("f", Surrogate{ID: "", Lowest: "Low-2"}); err == nil {
		t.Error("empty id accepted")
	}
	if err := r.Add("f", Surrogate{ID: "f", Lowest: "Low-2"}); err == nil {
		t.Error("surrogate id equal to original accepted")
	}
	if err := r.Add("f", Surrogate{ID: "f'", Lowest: "Low-2", InfoScore: 1.5}); err == nil {
		t.Error("infoScore > 1 accepted")
	}
	if err := r.Add("f", Surrogate{ID: "f'", Lowest: "Low-2", InfoScore: -0.1}); err == nil {
		t.Error("negative infoScore accepted")
	}
	if err := r.Add("f", Surrogate{ID: "f'", Lowest: "Bogus"}); err == nil {
		t.Error("unknown predicate accepted")
	}
	if err := r.Add("f", Surrogate{ID: "f'", Lowest: "Low-2", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("g", Surrogate{ID: "f'", Lowest: "Low-2"}); err == nil {
		t.Error("duplicate surrogate id across nodes accepted")
	}
}

func TestInfoScoreMonotonicity(t *testing.T) {
	_, r := fixture(t)
	// Low-2 dominates Public, so the Low-2 surrogate must score >= the
	// Public one (§4.1: "surrogates visible via more restrictive
	// privilege-predicates are more informative").
	if err := r.Add("f", Surrogate{ID: "f-low", Lowest: "Low-2", InfoScore: 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("f", Surrogate{ID: "f-pub", Lowest: privilege.Public, InfoScore: 0.9}); err == nil {
		t.Error("less-privileged surrogate with higher score accepted")
	}
	if err := r.Add("f", Surrogate{ID: "f-pub", Lowest: privilege.Public, InfoScore: 0.3}); err != nil {
		t.Errorf("monotone sibling rejected: %v", err)
	}
	// Adding a new dominating sibling below an existing one's score.
	lb := privilege.NewLabeling(privilege.FigureOneLattice())
	r2 := NewRegistry(lb)
	if err := lb.SetNode("x", "High-1"); err != nil {
		t.Fatal(err)
	}
	if err := r2.Add("x", Surrogate{ID: "x-pub", Lowest: privilege.Public, InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Add("x", Surrogate{ID: "x-low", Lowest: "Low-2", InfoScore: 0.2}); err == nil {
		t.Error("dominating sibling with lower score accepted")
	}
}

func TestSelectPrefersMostDominant(t *testing.T) {
	_, r := fixture(t)
	if err := r.Add("f", Surrogate{ID: "f-pub", Lowest: privilege.Public, InfoScore: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("f", Surrogate{ID: "f-low", Lowest: "Low-2", InfoScore: 0.7}); err != nil {
		t.Fatal(err)
	}
	s, ok := r.SelectForSet("f", []privilege.Predicate{"Low-2"}, nil)
	if !ok || s.ID != "f-low" {
		t.Errorf("SelectForSet(Low-2) = %v,%v; want f-low", s.ID, ok)
	}
	// A Public consumer can only see the Public surrogate.
	s, ok = r.SelectForSet("f", []privilege.Predicate{privilege.Public}, nil)
	if !ok || s.ID != "f-pub" {
		t.Errorf("SelectForSet(Public) = %v,%v; want f-pub", s.ID, ok)
	}
}

func TestSelectNoCandidate(t *testing.T) {
	_, r := fixture(t)
	if _, ok := r.SelectForSet("f", []privilege.Predicate{privilege.Public}, nil); ok {
		t.Error("SelectForSet returned a surrogate with empty registry")
	}
	r.EnableNullDefault()
	s, ok := r.SelectForSet("f", []privilege.Predicate{privilege.Public}, nil)
	if !ok || !s.IsNull || s.ID != NullID("f") {
		t.Errorf("null default not applied: %+v ok=%v", s, ok)
	}
	if len(s.Features) != 0 {
		t.Error("null surrogate should have no features")
	}
	if s.InfoScore != 0 {
		t.Error("null surrogate should score 0")
	}
}

func TestSelectIncomparableTieBreak(t *testing.T) {
	lb := privilege.NewLabeling(privilege.FigureOneLattice())
	r := NewRegistry(lb)
	// Node at an (undeclared-in-test) top: give x lowest High-1 so High-2
	// surrogates are incomparable and allowed; then make a consumer that
	// dominates both candidates.
	if err := lb.SetNode("x", "High-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("x", Surrogate{ID: "x-a", Lowest: "Low-2", InfoScore: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("x", Surrogate{ID: "x-b", Lowest: "High-2", InfoScore: 0.8}); err != nil {
		t.Fatal(err)
	}
	// High-2 consumer: both visible; High-2 surrogate dominates Low-2 one.
	s, ok := r.SelectForSet("x", []privilege.Predicate{"High-2"}, nil)
	if !ok || s.ID != "x-b" {
		t.Errorf("SelectForSet(High-2) = %v, want x-b", s.ID)
	}
	// Low-2 consumer: only x-a visible.
	s, ok = r.SelectForSet("x", []privilege.Predicate{"Low-2"}, nil)
	if !ok || s.ID != "x-a" {
		t.Errorf("SelectForSet(Low-2) = %v, want x-a", s.ID)
	}
}

func TestSelectTieBreakByScoreThenID(t *testing.T) {
	lb := privilege.NewLabeling(privilege.FigureOneLattice())
	r := NewRegistry(lb)
	if err := lb.SetNode("x", "High-1"); err != nil {
		t.Fatal(err)
	}
	// Two surrogates at the same predicate: higher score wins.
	if err := r.Add("x", Surrogate{ID: "x-2", Lowest: "Low-2", InfoScore: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("x", Surrogate{ID: "x-1", Lowest: "Low-2", InfoScore: 0.6}); err != nil {
		t.Fatal(err)
	}
	if s, _ := r.SelectForSet("x", []privilege.Predicate{"Low-2"}, nil); s.ID != "x-1" {
		t.Errorf("score tie-break failed: %v", s.ID)
	}
	// Equal scores: lexicographically smaller id wins.
	r2 := NewRegistry(lb)
	if err := r2.Add("x", Surrogate{ID: "x-b", Lowest: "Low-2", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Add("x", Surrogate{ID: "x-a", Lowest: "Low-2", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if s, _ := r2.SelectForSet("x", []privilege.Predicate{"Low-2"}, nil); s.ID != "x-a" {
		t.Errorf("id tie-break failed: %v", s.ID)
	}
}

func TestAddNull(t *testing.T) {
	_, r := fixture(t)
	if err := r.Add("f", Surrogate{ID: NullID("f"), Lowest: privilege.Public, IsNull: true}); err != nil {
		t.Fatal(err)
	}
	s, ok := r.SelectForSet("f", []privilege.Predicate{privilege.Public}, nil)
	if !ok || !s.IsNull || s.InfoScore != 0 {
		t.Errorf("explicit null not selected: %+v ok=%v", s, ok)
	}
}

func TestCloneIndependence(t *testing.T) {
	_, r := fixture(t)
	if err := r.Add("f", Surrogate{ID: "f'", Lowest: "Low-2", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	if err := c.Add("f", Surrogate{ID: "f''", Lowest: "Low-2", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if len(r.Surrogates("f")) != 1 {
		t.Error("clone mutation leaked")
	}
	if c.Labeling() != r.Labeling() {
		t.Error("clone should share labeling")
	}
}

func TestNullID(t *testing.T) {
	if NullID("f") != "f∅" {
		t.Errorf("NullID = %s", NullID("f"))
	}
}

// TestSelectForSetSkipsTakenIDs: a surrogate whose id is taken is not
// applicable, so selection falls to the next one (and the null default,
// when its id is taken too, to none).
func TestSelectForSetSkipsTakenIDs(t *testing.T) {
	lat := privilege.TwoLevel()
	lb := privilege.NewLabeling(lat)
	if err := lb.SetNode("f", "Protected"); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(lb)
	for _, s := range []Surrogate{{ID: "f1", Lowest: privilege.Public, InfoScore: 0.6}, {ID: "f2", Lowest: privilege.Public, InfoScore: 0.3}} {
		if err := r.Add("f", s); err != nil {
			t.Fatal(err)
		}
	}
	pub := []privilege.Predicate{privilege.Public}
	taken := func(ids ...graph.NodeID) func(graph.NodeID) bool {
		return func(id graph.NodeID) bool { return slices.Contains(ids, id) }
	}
	if s, ok := r.SelectForSet("f", pub, taken("f1")); !ok || s.ID != "f2" {
		t.Errorf("f1 taken: got %v,%v, want f2", s.ID, ok)
	}
	if _, ok := r.SelectForSet("f", pub, taken("f1", "f2")); ok {
		t.Error("both taken: a surrogate was still selected")
	}
	r.EnableNullDefault()
	if s, ok := r.SelectForSet("f", pub, taken("f1", "f2")); !ok || !s.IsNull {
		t.Errorf("both taken, null default: got %v,%v", s.ID, ok)
	}
	if _, ok := r.SelectForSet("f", pub, taken("f1", "f2", NullID("f"))); ok {
		t.Error("null default selected though its id is taken")
	}
}

package privilege

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromPairs(t *testing.T) {
	lat, err := FromPairs([][2]string{
		{"High-1", "Low-2"},
		{"High-2", "Low-2"},
		{"Low-2", "Public"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Dominates("High-1", Public) {
		t.Error("transitive dominance missing")
	}
	if !incomparable(lat, "High-1", "High-2") {
		t.Error("High-1/High-2 should be incomparable")
	}
}

func TestFromPairsErrors(t *testing.T) {
	if _, err := FromPairs([][2]string{{"", "X"}}); err == nil {
		t.Error("empty dominator accepted")
	}
	if _, err := FromPairs([][2]string{{"X", ""}}); err == nil {
		t.Error("empty dominated accepted")
	}
	if _, err := FromPairs([][2]string{{"A", "B"}, {"B", "A"}}); err == nil {
		t.Error("cycle accepted")
	}
	if _, err := FromPairs([][2]string{{"Public", "A"}}); err == nil {
		t.Error("Public as dominator accepted")
	}
}

func TestParseLatticeJSON(t *testing.T) {
	lat, err := ParseLatticeJSON([]byte(`[["A","B"],["B","C"]]`))
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Dominates("A", "C") {
		t.Error("parsed lattice missing transitive dominance")
	}
	if _, err := ParseLatticeJSON([]byte(`{"not":"an array"}`)); err == nil {
		t.Error("bad JSON shape accepted")
	}
	if _, err := ParseLatticeJSON([]byte(`garbage`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPairsRoundTrip(t *testing.T) {
	orig := FigureOneLattice()
	pairs := orig.Pairs()
	back, err := FromPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orig.Predicates() {
		for _, q := range orig.Predicates() {
			if orig.Dominates(p, q) != back.Dominates(p, q) {
				t.Errorf("round trip changed Dominates(%s,%s)", p, q)
			}
		}
	}
}

func TestLatticeMarshalJSON(t *testing.T) {
	data, err := json.Marshal(FigureOneLattice())
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseLatticeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Dominates("High-2", "Low-2") {
		t.Error("marshalled lattice lost an edge")
	}
	// Empty lattice marshals to [] not null.
	data, err = json.Marshal(NewLattice())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Errorf("empty lattice = %s, want []", data)
	}
}

// Property: Pairs/FromPairs round-trips arbitrary random lattices with an
// identical dominance relation.
func TestPairsRoundTripProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l, names := randomLattice(r, 3+r.Intn(8))
		back, err := FromPairs(l.Pairs())
		if err != nil {
			return false
		}
		all := append([]Predicate{Public}, names...)
		for _, p := range all {
			for _, q := range all {
				if l.Dominates(p, q) != back.Dominates(p, q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLatticeDOT(t *testing.T) {
	dot := FigureOneLattice().DOT("fig1b")
	for _, want := range []string{`digraph "fig1b"`, `"High-1" -> "Low-2"`, `"Low-2" -> "Public"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// An isolated predicate still shows its implicit Public edge.
	l := NewLattice()
	if err := l.Declare("Loner"); err != nil {
		t.Fatal(err)
	}
	if err := l.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(l.DOT("x"), `"Loner" -> "Public"`) {
		t.Error("implicit Public edge missing")
	}
}

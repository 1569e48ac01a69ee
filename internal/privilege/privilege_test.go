package privilege

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// incomparable reports whether neither predicate dominates the other.
func incomparable(l *Lattice, p, q Predicate) bool {
	return !l.Dominates(p, q) && !l.Dominates(q, p)
}

// isAntichain reports whether no member of ps dominates another distinct
// member: the shape Definition 6 requires of a high-water set.
func isAntichain(l *Lattice, ps []Predicate) bool {
	for i, p := range ps {
		for j, q := range ps {
			if i != j && l.Dominates(p, q) {
				return false
			}
		}
	}
	return true
}

func TestFigureOneLatticeOrdering(t *testing.T) {
	l := FigureOneLattice()
	cases := []struct {
		p, q Predicate
		want bool
	}{
		{"High-1", "Low-2", true},
		{"High-2", "Low-2", true},
		{"High-1", Public, true},
		{"Low-2", Public, true},
		{"High-1", "High-2", false},
		{"High-2", "High-1", false},
		{"Low-2", "High-1", false},
		{Public, "Low-2", false},
		{"High-1", "High-1", true},
		{Public, Public, true},
	}
	for _, c := range cases {
		if got := l.Dominates(c.p, c.q); got != c.want {
			t.Errorf("Dominates(%s,%s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
	if !incomparable(l, "High-1", "High-2") {
		t.Error("High-1 and High-2 should be incomparable")
	}
	if incomparable(l, "High-1", "Low-2") {
		t.Error("High-1 and Low-2 are comparable")
	}
}

func TestLatticeValidation(t *testing.T) {
	l := NewLattice()
	if err := l.SetDominates("A", "A"); err == nil {
		t.Error("self-dominance accepted")
	}
	if err := l.SetDominates(Public, "A"); err == nil {
		t.Error("Public dominating accepted")
	}
	if err := l.Declare(""); err == nil {
		t.Error("empty name accepted")
	}
	if err := l.SetDominates("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := l.SetDominates("B", "A"); err != nil {
		t.Fatal(err)
	}
	if err := l.Freeze(); err == nil {
		t.Error("cycle A<->B passed Freeze")
	}
}

func TestFreezeMakesImmutable(t *testing.T) {
	l := NewLattice()
	if err := l.SetDominates("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := l.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := l.Freeze(); err != nil {
		t.Errorf("second Freeze errored: %v", err)
	}
	if err := l.SetDominates("C", "D"); err == nil {
		t.Error("mutation after freeze accepted")
	}
	if err := l.Declare("E"); err == nil {
		t.Error("Declare after freeze accepted")
	}
}

func TestTransitiveDominance(t *testing.T) {
	l := NewLattice()
	for _, pair := range [][2]Predicate{{"D", "C"}, {"C", "B"}, {"B", "A"}} {
		if err := l.SetDominates(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !l.Dominates("D", "A") {
		t.Error("transitive dominance D>=A missing")
	}
	if l.Dominates("A", "D") {
		t.Error("reverse dominance A>=D present")
	}
	var below, above int
	for _, p := range l.Predicates() {
		if l.Dominates("D", p) {
			below++
		}
		if l.Dominates(p, "A") {
			above++
		}
	}
	if below != 5 || above != 4 { // A B C D Public; A B C D
		t.Errorf("D dominates %d predicates, A is dominated by %d; want 5, 4", below, above)
	}
}

func TestUnknownPredicates(t *testing.T) {
	l := FigureOneLattice()
	if l.Dominates("Nonsense", "Low-2") {
		t.Error("unknown predicate dominates Low-2")
	}
	if l.Dominates("Nonsense", Public) {
		t.Error("undeclared predicate dominates Public")
	}
	if !l.Dominates("Nonsense", "Nonsense") {
		t.Error("reflexivity should hold even for unknown names")
	}
	if l.Known("Nonsense") {
		t.Error("Known true for unknown")
	}
}

func TestMaximalAndAntichain(t *testing.T) {
	l := FigureOneLattice()
	hw := l.Maximal([]Predicate{"High-1", "Low-2", Public, "High-2", "High-1"})
	if len(hw) != 2 || hw[0] != "High-1" || hw[1] != "High-2" {
		t.Errorf("Maximal = %v, want [High-1 High-2]", hw)
	}
	if !isAntichain(l, hw) {
		t.Error("maximal set is not an antichain")
	}
	if isAntichain(l, []Predicate{"High-1", "Low-2"}) {
		t.Error("comparable pair reported as antichain")
	}
	if got := l.Maximal([]Predicate{Public}); len(got) != 1 || got[0] != Public {
		t.Errorf("Maximal([Public]) = %v", got)
	}
}

func TestDominatesAllAndSomeMember(t *testing.T) {
	l := FigureOneLattice()
	hw := []Predicate{"High-1", "High-2"}
	// p dominates every member of a set exactly when p alone is the
	// set's maximal element once p joins it (§3.1: such a consumer sees
	// the complete graph).
	if got := l.Maximal(append([]Predicate{"High-1"}, hw...)); len(got) == 1 {
		t.Errorf("High-1 should not dominate the whole HW set: maximal %v", got)
	}
	if got := l.Maximal([]Predicate{"High-1", "Low-2", Public}); len(got) != 1 || got[0] != "High-1" {
		t.Errorf("High-1 should dominate Low-2 and Public: maximal %v", got)
	}
	if !l.SomeMemberDominates(hw, "Low-2") {
		t.Error("HW member should dominate Low-2")
	}
	if l.SomeMemberDominates([]Predicate{"Low-2"}, "High-1") {
		t.Error("Low-2 should not dominate High-1")
	}
}

func TestAppendixLattice(t *testing.T) {
	l := AppendixLattice()
	if !l.Dominates("NationalSecurity", "EmergencyResponder") {
		t.Error("NS should transitively dominate ER")
	}
	if !l.Dominates("NationalSecurity", "MedicalProvider") {
		t.Error("NS should dominate MP")
	}
	if !incomparable(l, "ClearedEmergencyResponder", "MedicalProvider") {
		t.Error("CER and MP should be incomparable")
	}
}

func TestTwoLevel(t *testing.T) {
	l := TwoLevel()
	if !l.Dominates("Protected", Public) || l.Dominates(Public, "Protected") {
		t.Error("two-level ordering wrong")
	}
}

// randomLattice builds a random DAG lattice over k predicates; edges only
// go from higher-indexed to lower-indexed names so it is always acyclic.
func randomLattice(r *rand.Rand, k int) (*Lattice, []Predicate) {
	l := NewLattice()
	names := make([]Predicate, k)
	for i := range names {
		names[i] = Predicate(string(rune('A' + i)))
		if err := l.Declare(names[i]); err != nil {
			panic(err)
		}
	}
	for i := 1; i < k; i++ {
		for j := 0; j < i; j++ {
			if r.Intn(3) == 0 {
				if err := l.SetDominates(names[i], names[j]); err != nil {
					panic(err)
				}
			}
		}
	}
	if err := l.Freeze(); err != nil {
		panic(err)
	}
	return l, names
}

// Property: dominance is a partial order — reflexive, transitive, and
// antisymmetric on random lattices.
func TestDominancePartialOrderProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 3 + r.Intn(8)
		l, names := randomLattice(r, k)
		all := append([]Predicate{Public}, names...)
		for _, p := range all {
			if !l.Dominates(p, p) {
				return false
			}
			for _, q := range all {
				if p != q && l.Dominates(p, q) && l.Dominates(q, p) {
					return false // antisymmetry violated
				}
				for _, s := range all {
					if l.Dominates(p, q) && l.Dominates(q, s) && !l.Dominates(p, s) {
						return false // transitivity violated
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Maximal always returns an antichain that covers its input.
func TestMaximalAntichainProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l, names := randomLattice(r, 3+r.Intn(8))
		var in []Predicate
		for _, n := range names {
			if r.Intn(2) == 0 {
				in = append(in, n)
			}
		}
		in = append(in, Public)
		max := l.Maximal(in)
		if !isAntichain(l, max) {
			return false
		}
		for _, p := range in {
			if !l.SomeMemberDominates(max, p) {
				return false
			}
		}
		// Every member of the result must come from the input set.
		inSet := map[Predicate]bool{}
		for _, p := range in {
			inSet[p] = true
		}
		for _, m := range max {
			if !inSet[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func figureOneGraph(t *testing.T) (*graph.Graph, *Labeling) {
	t.Helper()
	g := graph.New()
	for _, id := range []graph.NodeID{"a1", "a2", "b", "c", "f", "g"} {
		g.AddNodeID(id)
	}
	g.MustAddEdge("a1", "b")
	g.MustAddEdge("b", "c")
	g.MustAddEdge("c", "f")
	g.MustAddEdge("f", "g")
	lb := NewLabeling(FigureOneLattice())
	mustSetNode(t, lb, "a1", "High-1")
	mustSetNode(t, lb, "a2", "High-2")
	mustSetNode(t, lb, "f", "Low-2")
	return g, lb
}

func mustSetNode(t *testing.T, lb *Labeling, n graph.NodeID, p Predicate) {
	t.Helper()
	if err := lb.SetNode(n, p); err != nil {
		t.Fatal(err)
	}
}

func TestLabelingDefaultsAndVisibility(t *testing.T) {
	g, lb := figureOneGraph(t)
	if lb.LowestNode("b") != Public {
		t.Error("unlabeled node should default to Public")
	}
	if lb.LowestNode("a1") != "High-1" {
		t.Error("explicit label lost")
	}
	if !lb.NodeVisible("b", Public) {
		t.Error("public node invisible to Public")
	}
	if lb.NodeVisible("a1", "High-2") {
		t.Error("High-1 node visible to incomparable High-2")
	}
	if !lb.NodeVisible("f", "High-2") {
		t.Error("Low-2 node should be visible to High-2")
	}
	var vis []graph.NodeID
	for _, id := range g.Nodes() {
		if lb.NodeVisible(id, "High-2") {
			vis = append(vis, id)
		}
	}
	if len(vis) != 5 { // a2 b c f g
		t.Errorf("visible via High-2: %v", vis)
	}
	if err := lb.SetNode("c", "Bogus"); err == nil {
		t.Error("unknown predicate accepted for node")
	}
}

func TestHighWater(t *testing.T) {
	g, lb := figureOneGraph(t)
	hw := lb.HighWater(g)
	if len(hw) != 2 || hw[0] != "High-1" || hw[1] != "High-2" {
		t.Errorf("HighWater = %v, want [High-1 High-2]", hw)
	}
	lat := lb.Lattice()
	if !isAntichain(lat, hw) {
		t.Error("high-water set not an antichain")
	}
	// Definition 6 conditions 2 and 3.
	for _, id := range g.Nodes() {
		if !lat.SomeMemberDominates(hw, lb.LowestNode(id)) {
			t.Errorf("HW does not cover node %s", id)
		}
	}
	for _, p := range hw {
		found := false
		for _, id := range g.Nodes() {
			if lb.LowestNode(id) == p {
				found = true
			}
		}
		if !found {
			t.Errorf("HW member %s is not any node's lowest", p)
		}
	}
}

func TestLabelingClone(t *testing.T) {
	g, lb := figureOneGraph(t)
	c := lb.Clone()
	mustSetNode(t, c, "b", "High-2")
	if lb.LowestNode("b") != Public {
		t.Error("clone shares node map")
	}
	if c.Lattice() != lb.Lattice() {
		t.Error("clone should share the lattice")
	}
	_ = g
}

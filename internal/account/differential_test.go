package account

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// choices hands out the decisions that build a spec, one byte each, and
// zeros once the bytes run out, so every byte string builds a valid spec.
type choices []byte

func (c *choices) next(n int) int {
	if len(*c) == 0 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % n
}

// diffLevels are the predicates of the Figure 1 lattice.
var diffLevels = []privilege.Predicate{privilege.Public, "Low-2", "High-1", "High-2"}

// diffHighWater are the high-water sets the differential runs, the last
// one of two incomparable members.
var diffHighWater = [][]privilege.Predicate{{privilege.Public}, {"Low-2"}, {"High-1"}, {"High-1", "High-2"}}

// specFromBytes builds a spec over the Figure 1 lattice from data: a graph
// of 3 to 12 nodes with forward edges and the occasional back edge
// (cycles), node labels, node-level thresholds (Surrogate or Hide),
// surrogates (some not Public), and incidence-level markings at either end
// of an edge, as thresholds and as explicit per-predicate marks. It also
// picks the high-water set, and counts the incidence-level markings.
func specFromBytes(data []byte) (spec *Spec, hw []privilege.Predicate, incidence int) {
	c := choices(data)
	lat := privilege.FigureOneLattice()
	lb := privilege.NewLabeling(lat)
	pol := policy.New(lat)
	reg := surrogate.NewRegistry(lb)
	g := graph.New()
	n := 3 + c.next(10)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(fmt.Sprintf("n%02d", i))
		g.AddNodeID(ids[i])
	}
	for i := range n {
		for j := i + 1; j < n; j++ {
			if c.next(3) == 0 {
				g.MustAddEdge(ids[i], ids[j])
			} else if c.next(12) == 0 {
				g.MustAddEdge(ids[j], ids[i])
			}
		}
	}
	for _, id := range ids {
		lv := diffLevels[c.next(len(diffLevels))]
		if lv == privilege.Public {
			continue
		}
		if err := lb.SetNode(id, lv); err != nil {
			panic(err)
		}
		switch c.next(4) {
		case 0:
			_ = pol.SetNodeThreshold(id, lv, policy.Hide)
		case 1, 2:
			_ = pol.SetNodeThreshold(id, lv, policy.Surrogate)
		}
		for k := range c.next(3) {
			// An invalid surrogate (one that dominates its original, or
			// breaks the infoScore order) is refused and left out.
			_ = reg.Add(id, surrogate.Surrogate{
				ID:        id + graph.NodeID(fmt.Sprint("'", k)),
				Lowest:    diffLevels[c.next(2)],
				InfoScore: float64(c.next(11)) / 10,
			})
		}
	}
	markings := []policy.Marking{policy.Visible, policy.Hide, policy.Surrogate}
	for _, e := range g.Edges() {
		at := diffLevels[1+c.next(3)]
		end := e.To
		if c.next(2) == 0 {
			end = e.From
		}
		var err error
		switch c.next(6) {
		case 0:
			err = pol.SetIncidenceThreshold(end, e.ID(), at, policy.Surrogate)
		case 1:
			err = pol.SetIncidenceThreshold(end, e.ID(), at, policy.Hide)
		case 2:
			err = pol.SetIncidence(end, e.ID(), diffLevels[c.next(len(diffLevels))], markings[c.next(3)])
		default:
			continue
		}
		if err != nil {
			panic(err)
		}
		incidence++
	}
	spec = &Spec{Graph: g, Labeling: lb, Policy: pol, Surrogates: reg}
	return spec, diffHighWater[c.next(len(diffHighWater))], incidence
}

// checkAgainstReference generates the account of spec for hw with the slot
// walker and with the reference map walker (reference_test.go), in both
// the surrogate and the hide mode, and fails unless G′, its surrogate
// edges and the account maps agree. It reports whether the surrogate run
// needed the completion sweep.
func checkAgainstReference(t *testing.T, label string, spec *Spec, hw []privilege.Predicate) (swept bool) {
	t.Helper()
	got, err := GenerateForSet(spec, hw)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := refGenerateForSet(spec, hw)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	assertSameAccount(t, label+" (surrogate)", got, want)
	if got.completed != want.completed {
		t.Fatalf("%s: completion sweep %v, reference %v", label, got.completed, want.completed)
	}
	gotHide, err := GenerateHideForSet(spec, hw)
	if err != nil {
		t.Fatalf("%s: hide: %v", label, err)
	}
	wantHide, err := refGenerateHideForSet(spec, hw)
	if err != nil {
		t.Fatalf("%s: reference hide: %v", label, err)
	}
	assertSameAccount(t, label+" (hide)", gotHide, wantHide)
	return got.completed
}

// TestGenerateMatchesReferenceWalker: over a random corpus of specs with
// incidence-level markings, vetoes and multi-member high-water sets,
// Generate and GenerateHide on the slot walker produce exactly the
// accounts of the reference map walker. The corpus must reach the
// completion sweep, the multi-member set and the incidence marks, or it
// does not cover what it is for.
func TestGenerateMatchesReferenceWalker(t *testing.T) {
	var swept, multi, incidence int
	for seed := int64(1); seed <= 400; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		spec, hw, marks := specFromBytes(data)
		if checkAgainstReference(t, fmt.Sprintf("seed %d, hw %v", seed, hw), spec, hw) {
			swept++
		}
		if len(hw) > 1 {
			multi++
		}
		if marks > 0 {
			incidence++
		}
	}
	t.Logf("400 specs: %d needed the completion sweep, %d had a two-member high-water set, %d incidence-level markings", swept, multi, incidence)
	if swept == 0 || multi == 0 || incidence == 0 {
		t.Errorf("the corpus missed a path: %d completion sweeps, %d two-member high-water sets, %d with incidence-level markings", swept, multi, incidence)
	}
}

// FuzzGenerate holds the slot walker to the reference map walker on specs
// built from arbitrary bytes (specFromBytes).
func FuzzGenerate(f *testing.F) {
	for _, seed := range []int64{3, 19, 70} {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, hw, _ := specFromBytes(data)
		checkAgainstReference(t, fmt.Sprintf("hw %v", hw), spec, hw)
	})
}

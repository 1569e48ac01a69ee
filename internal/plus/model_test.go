package plus

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

// storeModel is the trivially-correct reference the real store is checked
// against: last-writer-wins objects, append-only unique edges, append-only
// surrogates.
type storeModel struct {
	objects    map[string]Object
	edges      map[[2]string]Edge
	surrogates map[string][]SurrogateSpec
}

func newStoreModel() *storeModel {
	return &storeModel{
		objects:    map[string]Object{},
		edges:      map[[2]string]Edge{},
		surrogates: map[string][]SurrogateSpec{},
	}
}

// applyRandomOps drives the same random operation sequence into the store
// and the model, recording only operations the store accepted.
func applyRandomOps(r *rand.Rand, s *LogBackend, m *storeModel, n int) error {
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0, 1: // put object (replace allowed)
			o := Object{
				ID:   ids[r.Intn(len(ids))],
				Kind: Data,
				Name: fmt.Sprintf("v%d", i),
			}
			if r.Intn(2) == 0 {
				o.Kind = Invocation
			}
			if r.Intn(3) == 0 {
				o.Lowest = "Protected"
				o.Protect = "surrogate"
			}
			if err := s.PutObject(o); err != nil {
				return err
			}
			m.objects[o.ID] = o
		case 2: // put edge (may be rejected: missing endpoint, dup, self)
			e := Edge{From: ids[r.Intn(len(ids))], To: ids[r.Intn(len(ids))], Label: "l"}
			if err := s.PutEdge(e); err == nil {
				m.edges[[2]string{e.From, e.To}] = e
			}
		case 3: // put surrogate (may be rejected: missing original, dup id)
			orig := ids[r.Intn(len(ids))]
			sp := SurrogateSpec{ForID: orig, ID: fmt.Sprintf("%s~%d", orig, i), Name: "s", InfoScore: 0.5}
			if err := s.PutSurrogate(sp); err == nil {
				m.surrogates[orig] = append(m.surrogates[orig], sp)
			}
		}
	}
	return nil
}

// agree checks that store and model describe the same contents.
func agree(t *testing.T, s *LogBackend, m *storeModel, stage string) {
	t.Helper()
	if s.NumObjects() != len(m.objects) {
		t.Fatalf("%s: objects %d vs model %d", stage, s.NumObjects(), len(m.objects))
	}
	for id, want := range m.objects {
		got, err := s.GetObject(id)
		if err != nil {
			t.Fatalf("%s: missing object %s: %v", stage, id, err)
		}
		if got.Name != want.Name || got.Kind != want.Kind || got.Lowest != want.Lowest {
			t.Fatalf("%s: object %s = %+v, want %+v", stage, id, got, want)
		}
	}
	edgeCount := 0
	for id := range m.objects {
		for _, e := range s.EdgesFrom(id) {
			if _, ok := m.edges[[2]string{e.From, e.To}]; !ok {
				t.Fatalf("%s: store has unexpected edge %s->%s", stage, e.From, e.To)
			}
			edgeCount++
		}
		if got, want := len(s.SurrogatesOf(id)), len(m.surrogates[id]); got != want {
			t.Fatalf("%s: surrogates of %s = %d, want %d", stage, id, got, want)
		}
	}
	if edgeCount != len(m.edges) {
		t.Fatalf("%s: edges %d vs model %d", stage, edgeCount, len(m.edges))
	}
}

// Property: after any random operation sequence, the store agrees with the
// model — live, after reopen, and after compaction + reopen.
func TestStoreModelProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	check := func(seed int64) bool {
		i++
		path := filepath.Join(dir, fmt.Sprintf("model-%d.log", i))
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		m := newStoreModel()
		if err := applyRandomOps(r, s, m, 60); err != nil {
			t.Fatal(err)
		}
		agree(t, s, m, "live")

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		agree(t, s, m, "reopened")

		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		agree(t, s, m, "compacted")

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		agree(t, s, m, "compacted+reopened")
		s.Close()
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

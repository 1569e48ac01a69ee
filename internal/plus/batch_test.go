package plus

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestApplyBatch(t *testing.T) {
	s, path := openTemp(t)
	b := Batch{
		Objects: []Object{
			{ID: "a", Kind: Data, Name: "a"},
			{ID: "p", Kind: Invocation, Name: "p", Lowest: "Protected", Protect: "surrogate"},
			{ID: "b", Kind: Data, Name: "b"},
		},
		Edges: []Edge{
			{From: "a", To: "p"},
			{From: "p", To: "b"},
		},
		Surrogates: []SurrogateSpec{
			{ForID: "p", ID: "p~", Name: "a step", InfoScore: 0.5},
		},
	}
	if b.Len() != 6 {
		t.Errorf("Len = %d", b.Len())
	}
	if _, err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	if s.NumObjects() != 3 || s.NumEdges() != 2 || len(s.SurrogatesOf("p")) != 1 {
		t.Errorf("state after batch: %d/%d", s.NumObjects(), s.NumEdges())
	}
	// Batched records replay like individual ones.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumObjects() != 3 || s2.NumEdges() != 2 {
		t.Errorf("replay after batch: %d/%d", s2.NumObjects(), s2.NumEdges())
	}
}

func TestApplyBatchValidationLeavesStoreUntouched(t *testing.T) {
	s, _ := openTemp(t)
	putChain(t, s, "x", "y")
	sizeBefore := s.Size()

	bad := []Batch{
		{Objects: []Object{{ID: "", Kind: Data}}},
		{Objects: []Object{{ID: "q", Kind: "banana"}}},
		{Objects: []Object{{ID: "q", Kind: Data, Protect: "banana"}}},
		{Edges: []Edge{{From: "x", To: "x"}}},
		{Edges: []Edge{{From: "x", To: "missing"}}},
		{Edges: []Edge{{From: "x", To: "y"}}}, // already stored
		{Objects: []Object{{ID: "q", Kind: Data}}, Edges: []Edge{{From: "x", To: "q"}, {From: "x", To: "q"}}},
		{Surrogates: []SurrogateSpec{{ForID: "missing", ID: "m~"}}},
		{Surrogates: []SurrogateSpec{{ForID: "x", ID: "x"}}},
		{Surrogates: []SurrogateSpec{{ForID: "x", ID: "x~", InfoScore: 5}}},
	}
	for i, b := range bad {
		if _, err := s.Apply(b); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	if s.Size() != sizeBefore || s.NumObjects() != 2 || s.NumEdges() != 1 {
		t.Error("failed batches mutated the store")
	}
}

func TestApplyBatchIntraBatchReferences(t *testing.T) {
	s, _ := openTemp(t)
	// The edge references an object defined in the same batch.
	b := Batch{
		Objects: []Object{{ID: "n1", Kind: Data, Name: "1"}, {ID: "n2", Kind: Data, Name: "2"}},
		Edges:   []Edge{{From: "n1", To: "n2"}},
	}
	if _, err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 1 {
		t.Error("intra-batch edge lost")
	}
}

func TestApplyEmptyBatchAndClosed(t *testing.T) {
	s, _ := openTemp(t)
	if _, err := s.Apply(Batch{}); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Batch{Objects: []Object{{ID: "a", Kind: Data}}}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("apply on closed store: %v", err)
	}
}

// TestApplyReturnsOwnRevision runs concurrent single-record batches and
// checks each returned revision names that batch's own record — not a
// later concurrent writer's — so the cursor POST /v2/batch hands back
// never skips another batch's records.
func TestApplyReturnsOwnRevision(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Backend
	}{
		{"log", func() Backend { s, _ := openTemp(t); return s }()},
		{"mem", NewMemBackend(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const writers = 16
			revs := make([]uint64, writers)
			var wg sync.WaitGroup
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					id := fmt.Sprintf("w%02d", i)
					rev, err := tc.b.Apply(Batch{Objects: []Object{{ID: id, Kind: Data, Name: id}}})
					if err != nil {
						t.Error(err)
						return
					}
					revs[i] = rev
				}(i)
			}
			wg.Wait()
			changes, err := tc.b.ChangesSince(0)
			if err != nil {
				t.Fatal(err)
			}
			for i, rev := range revs {
				id := fmt.Sprintf("w%02d", i)
				if rev == 0 || rev > uint64(len(changes)) {
					t.Fatalf("writer %d got revision %d", i, rev)
				}
				if c := changes[rev-1]; c.Object.ID != id {
					t.Errorf("writer %d: revision %d holds %q, want own record %q", i, rev, c.Object.ID, id)
				}
			}
			tc.b.Close()
		})
	}
}

// TestBatchValidateRejections pins every rejection of Batch.validate and
// its exact message, and that endpoints may come from the store, from the
// batch, or one from each.
func TestBatchValidateRejections(t *testing.T) {
	stored := func(id string) bool { return id == "x" || id == "y" }
	hasEdge := func(from, to string) bool { return from == "x" && to == "y" }
	q := Object{ID: "q", Kind: Data}
	r := Object{ID: "r", Kind: Data}
	for _, tc := range []struct {
		name string
		b    Batch
		want string // "" = accepted
	}{
		{"self edge", Batch{Edges: []Edge{{From: "x", To: "x"}}}, "plus: batch self edge x"},
		{"missing source", Batch{Edges: []Edge{{From: "nope", To: "x"}}}, "plus: batch edge nope->x references missing object"},
		{"missing target", Batch{Objects: []Object{q}, Edges: []Edge{{From: "q", To: "nope"}}}, "plus: batch edge q->nope references missing object"},
		{"duplicate in batch", Batch{Objects: []Object{q}, Edges: []Edge{{From: "x", To: "q"}, {From: "x", To: "q"}}}, "plus: batch duplicate edge x->q"},
		{"already stored", Batch{Edges: []Edge{{From: "x", To: "y"}}}, "plus: batch edge x->y already stored"},
		{"surrogate for missing object", Batch{Surrogates: []SurrogateSpec{{ForID: "nope", ID: "n~"}}}, "plus: batch surrogate for missing object nope"},
		{"invalid object first", Batch{Objects: []Object{q, {ID: "", Kind: Data}}, Edges: []Edge{{From: "x", To: "x"}}}, "plus: batch: plus: object with empty id"},
		{"stored to stored", Batch{Edges: []Edge{{From: "y", To: "x"}}}, ""},
		{"batch to batch", Batch{Objects: []Object{q, r}, Edges: []Edge{{From: "q", To: "r"}, {From: "r", To: "q"}}}, ""},
		{"stored to batch and back", Batch{Objects: []Object{r, q}, Edges: []Edge{{From: "x", To: "q"}, {From: "q", To: "y"}}}, ""},
		{"surrogate for batch object", Batch{Objects: []Object{q}, Surrogates: []SurrogateSpec{{ForID: "q", ID: "q~"}}}, ""},
		{"surrogate for stored object", Batch{Surrogates: []SurrogateSpec{{ForID: "y", ID: "y~"}}}, ""},
	} {
		err := tc.b.validate(stored, hasEdge)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

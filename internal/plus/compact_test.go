package plus

import (
	"testing"
)

func TestCompactShrinksAndPreservesState(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b", "c")
	if err := s.PutSurrogate(SurrogateSpec{ForID: "b", ID: "b'", Name: "anon", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Replace object a many times to accumulate superseded records.
	for i := 0; i < 50; i++ {
		if err := s.PutObject(Object{ID: "a", Kind: Data, Name: "version"}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Size()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Size()
	if after >= before {
		t.Errorf("compaction did not shrink: %d -> %d", before, after)
	}
	if s.NumObjects() != 3 || s.NumEdges() != 2 {
		t.Errorf("state after compact: %d objects %d edges", s.NumObjects(), s.NumEdges())
	}
	o, err := s.GetObject("a")
	if err != nil || o.Name != "version" {
		t.Errorf("latest version lost: %+v %v", o, err)
	}

	// The store remains writable and the log replays cleanly.
	if err := s.PutObject(Object{ID: "d", Kind: Data, Name: "after"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumObjects() != 4 || s2.NumEdges() != 2 {
		t.Errorf("reopen after compact: %d objects %d edges", s2.NumObjects(), s2.NumEdges())
	}
	if len(s2.SurrogatesOf("b")) != 1 {
		t.Error("surrogate lost across compact + reopen")
	}
}

func TestCompactOnClosedStore(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Error("compact on closed store accepted")
	}
}

func TestEdgeAccessors(t *testing.T) {
	s, _ := openTemp(t)
	putChain(t, s, "a", "b", "c")
	if got := s.EdgesFrom("a"); len(got) != 1 || got[0].To != "b" {
		t.Errorf("EdgesFrom(a) = %v", got)
	}
	if got := s.EdgesTo("c"); len(got) != 1 || got[0].From != "b" {
		t.Errorf("EdgesTo(c) = %v", got)
	}
	if got := s.EdgesFrom("c"); len(got) != 0 {
		t.Errorf("EdgesFrom(c) = %v", got)
	}
	// Returned slices are copies.
	es := s.EdgesFrom("a")
	es[0].To = "mutated"
	if s.EdgesFrom("a")[0].To != "b" {
		t.Error("EdgesFrom returned shared storage")
	}
}

package plus

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzReplay writes arbitrary bytes as a log file and opens it: replay
// must never panic; it either recovers a store (possibly empty, after
// truncating a torn tail) or fails with an error. Stores it does recover
// must survive an append and a reopen that reads every object and
// surrogate back as the recovered store gave it (testdata/fuzz holds a
// log whose records carry user "name" and "kind" features).
func FuzzReplay(f *testing.F) {
	// Seed with a real log prefix.
	dir, err := os.MkdirTemp("", "plus-fuzz-seed-*")
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "seed.log")
	s, err := Open(path, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.PutObject(Object{ID: "a", Kind: Data, Name: "seed"}); err != nil {
		f.Fatal(err)
	}
	if err := s.PutObject(Object{ID: "b", Kind: Invocation, Name: "seed2"}); err != nil {
		f.Fatal(err)
	}
	if err := s.PutEdge(Edge{From: "a", To: "b"}); err != nil {
		f.Fatal(err)
	}
	s.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	os.RemoveAll(dir)

	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // torn mid-record
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fdir := t.TempDir()
		fpath := filepath.Join(fdir, "fuzz.log")
		if err := os.WriteFile(fpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(fpath, Options{})
		if err != nil {
			return // rejected as corrupt: fine
		}
		defer st.Close()
		// A recovered store must stay consistent and writable.
		if st.NumObjects() < 0 || st.NumEdges() < 0 {
			t.Fatal("negative counts")
		}
		if err := st.PutObject(Object{ID: "post-recovery", Kind: Data, Name: "x"}); err != nil {
			t.Fatalf("recovered store rejects appends: %v", err)
		}
		n := st.NumObjects()
		objects := st.Objects()
		surrogates := map[string][]SurrogateSpec{}
		for _, o := range objects {
			surrogates[o.ID] = st.SurrogatesOf(o.ID)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		st2, err := Open(fpath, Options{})
		if err != nil {
			t.Fatalf("reopen after recovery+append failed: %v", err)
		}
		defer st2.Close()
		if st2.NumObjects() != n {
			t.Fatalf("reopen lost objects: %d vs %d", st2.NumObjects(), n)
		}
		for _, o := range objects {
			got, err := st2.GetObject(o.ID)
			if err != nil || !sameObject(got, o) {
				t.Fatalf("object %s reopened as %+v (%v), was %+v", o.ID, got, err, o)
			}
			if got := st2.SurrogatesOf(o.ID); !slices.EqualFunc(got, surrogates[o.ID], sameSurrogate) {
				t.Fatalf("surrogates of %s reopened as %+v, were %+v", o.ID, got, surrogates[o.ID])
			}
		}
	})
}

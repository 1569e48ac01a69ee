package plus

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T) (*LogBackend, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plus.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func putChain(t *testing.T, s *LogBackend, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := s.PutObject(Object{ID: id, Kind: Data, Name: "obj " + id}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := s.PutEdge(Edge{From: ids[i], To: ids[i+1], Label: "input-to"}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPutAndGetObject(t *testing.T) {
	s, _ := openTemp(t)
	o := Object{ID: "d1", Kind: Data, Name: "report", Features: map[string]string{"fmt": "pdf"}, Lowest: "Secret"}
	if err := s.PutObject(o); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetObject("d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "report" || got.Features["fmt"] != "pdf" || got.Lowest != "Secret" {
		t.Errorf("got %+v", got)
	}
	if _, err := s.GetObject("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object error = %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.PutObject(Object{ID: "", Kind: Data}); err == nil {
		t.Error("empty id accepted")
	}
	if err := s.PutObject(Object{ID: "x", Kind: "banana"}); err == nil {
		t.Error("unknown kind accepted")
	}
	putChain(t, s, "a", "b")
	if err := s.PutEdge(Edge{From: "a", To: "zzz"}); err == nil {
		t.Error("edge to missing object accepted")
	}
	if err := s.PutEdge(Edge{From: "zzz", To: "a"}); err == nil {
		t.Error("edge from missing object accepted")
	}
	if err := s.PutEdge(Edge{From: "a", To: "a"}); err == nil {
		t.Error("self edge accepted")
	}
	if err := s.PutEdge(Edge{From: "a", To: "b"}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := s.PutSurrogate(SurrogateSpec{ForID: "zzz", ID: "z'"}); err == nil {
		t.Error("surrogate for missing object accepted")
	}
	if err := s.PutSurrogate(SurrogateSpec{ForID: "a", ID: "a"}); err == nil {
		t.Error("surrogate id == original accepted")
	}
	if err := s.PutSurrogate(SurrogateSpec{ForID: "a", ID: "a'", InfoScore: 2}); err == nil {
		t.Error("bad infoScore accepted")
	}
}

func TestReopenRecoversState(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b", "c")
	if err := s.PutSurrogate(SurrogateSpec{ForID: "b", ID: "b'", Name: "anon", InfoScore: 0.5}); err != nil {
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
	if s2.NumObjects() != 3 || s2.NumEdges() != 2 {
		t.Errorf("recovered %d objects %d edges, want 3, 2", s2.NumObjects(), s2.NumEdges())
	}
	o, err := s2.GetObject("b")
	if err != nil || o.Name != "obj b" {
		t.Errorf("recovered object b = %+v, %v", o, err)
	}
	if len(s2.SurrogatesOf("b")) != 1 {
		t.Error("surrogate lost on reopen")
	}
	// The store stays writable after recovery.
	if err := s2.PutObject(Object{ID: "d", Kind: Invocation, Name: "proc"}); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: append garbage that looks like a
	// half-written record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.NumObjects() != 2 || s2.NumEdges() != 1 {
		t.Errorf("recovered %d objects %d edges, want 2, 1", s2.NumObjects(), s2.NumEdges())
	}
	// New appends land where the torn tail was removed.
	if err := s2.PutObject(Object{ID: "c", Kind: Data, Name: "after-crash"}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.NumObjects() != 3 {
		t.Errorf("objects after re-recovery = %d, want 3", s3.NumObjects())
	}
}

func TestCorruptTailChecksumTruncated(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b")
	sizeBefore := s.Size()
	if err := s.PutObject(Object{ID: "c", Kind: Data}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the final record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[sizeBefore+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("tail corruption should truncate, got %v", err)
	}
	defer s2.Close()
	if s2.NumObjects() != 2 {
		t.Errorf("objects = %d, want 2 (corrupt tail dropped)", s2.NumObjects())
	}
}

func TestMidLogCorruptionFailsLoudly(t *testing.T) {
	s, path := openTemp(t)
	putChain(t, s, "a", "b", "c", "d")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte early in the log (inside the first record).
	data[10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("mid-log corruption silently accepted")
	}
}

func TestUseAfterClose(t *testing.T) {
	s, _ := openTemp(t)
	putChain(t, s, "a", "b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := s.PutObject(Object{ID: "x", Kind: Data}); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close = %v", err)
	}
	if _, err := s.GetObject("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close = %v", err)
	}
}

func TestSyncOptionAndSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plus.log")
	s, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A fresh store holds no records, but it is stamped with its epoch
	// identity on creation, so the log is not zero bytes.
	if s.NumObjects() != 0 || s.Revision() != 0 {
		t.Error("fresh store should be empty")
	}
	if s.Size() == 0 {
		t.Error("fresh store missing its epoch stamp")
	}
	if s.Epoch() == "" {
		t.Error("fresh store has no epoch")
	}
	before := s.Size()
	putChain(t, s, "a", "b")
	if s.Size() <= before {
		t.Error("size did not grow")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != s.Size() {
		t.Errorf("file size %d != tracked size %d", info.Size(), s.Size())
	}
}

func TestObjectsListing(t *testing.T) {
	s, _ := openTemp(t)
	putChain(t, s, "a", "b", "c")
	objs := s.Objects()
	if len(objs) != 3 {
		t.Errorf("Objects() = %d items", len(objs))
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	s, _ := openTemp(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := string(rune('a'+w)) + string(rune('0'+i%10)) + string(rune('0'+i/10))
				if err := s.PutObject(Object{ID: id, Kind: Data, Name: id}); err != nil {
					t.Errorf("put %s: %v", id, err)
					return
				}
				if _, err := s.GetObject(id); err != nil {
					t.Errorf("get %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.NumObjects() != workers*25 {
		t.Errorf("objects = %d, want %d", s.NumObjects(), workers*25)
	}
}

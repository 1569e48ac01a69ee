package plus

import (
	"errors"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

// TestFailedWriteLeavesLogOpenable makes one write fail part-way through by
// lowering RLIMIT_FSIZE to just past the log's end, then makes an
// acknowledged write and reopens. The failed write's fragment must have
// been cut off, so the log replays to exactly the acknowledged records.
// Not parallel: the limit is process-wide.
func TestFailedWriteLeavesLogOpenable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(b *LogBackend, id string) error
	}{
		{"PutObject", func(b *LogBackend, id string) error {
			return b.PutObject(Object{ID: id, Kind: Data, Name: id})
		}},
		{"Apply", func(b *LogBackend, id string) error {
			_, err := b.Apply(Batch{Objects: []Object{{ID: id, Kind: Data, Name: id}}, Edges: []Edge{{From: "a", To: id}}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fault.log")
			b, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := b.PutObject(Object{ID: "a", Kind: Data, Name: "a"}); err != nil {
				t.Fatal(err)
			}
			rev := b.Revision()
			withFileSizeLimit(t, b.Size()+4, func() {
				if err := tc.write(b, "lost"); err == nil {
					t.Fatal("a write past the file size limit was acknowledged")
				}
			})
			if _, err := b.GetObject("lost"); !errors.Is(err, ErrNotFound) || b.Revision() != rev {
				t.Fatalf("failed write reached the store: get = %v, revision %d -> %d", err, rev, b.Revision())
			}
			if err := tc.write(b, "kept"); err != nil {
				t.Fatalf("acknowledged write after a failed one: %v", err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}

			b2, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("reopen after a failed write: %v", err)
			}
			defer b2.Close()
			var ids []string
			for _, o := range b2.Objects() {
				ids = append(ids, o.ID)
			}
			slices.Sort(ids)
			if !slices.Equal(ids, []string{"a", "kept"}) {
				t.Errorf("reopened objects = %v, want [a kept]", ids)
			}
			if tc.name == "Apply" && (b2.NumEdges() != 1 || len(b2.EdgesTo("kept")) != 1) {
				t.Errorf("reopened edges = %d, want only a->kept", b2.NumEdges())
			}
		})
	}
}

// withFileSizeLimit runs f with the process's RLIMIT_FSIZE soft limit
// lowered to limit bytes, then restores it. The runtime ignores the
// SIGXFSZ a write past the limit raises; the write returns EFBIG instead.
func withFileSizeLimit(t *testing.T, limit int64, f func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lowered := old
	lowered.Cur = uint64(limit)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Fatalf("lower RLIMIT_FSIZE: %v", err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("restore RLIMIT_FSIZE: %v", err)
		}
	}()
	f()
}

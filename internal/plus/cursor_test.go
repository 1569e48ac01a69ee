package plus

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	cases := []Cursor{
		{Epoch: "deadbeefcafef00d", Rev: 0},
		{Epoch: "00", Rev: 1},
		{Epoch: "abc123", Rev: 1<<63 + 17},
	}
	for _, c := range cases {
		enc := c.Encode()
		if !strings.HasPrefix(enc, cursorPrefix) {
			t.Errorf("Encode(%+v) = %q, missing prefix", c, enc)
		}
		got, err := DecodeCursor(enc)
		if err != nil {
			t.Fatalf("DecodeCursor(%q): %v", enc, err)
		}
		if got != c {
			t.Errorf("round trip %+v -> %+v", c, got)
		}
	}
}

func TestCursorDecodeRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"plusv2",
		"not-a-cursor",
		cursorPrefix + "!!!not base64!!!",
		cursorPrefix + "bm90IGpzb24",       // "not json"
		Cursor{Epoch: "", Rev: 3}.Encode(), // empty epoch
		"v1." + strings.TrimPrefix(Cursor{Epoch: "e"}.Encode(), cursorPrefix), // wrong prefix
	}
	for _, s := range bad {
		if _, err := DecodeCursor(s); err == nil {
			t.Errorf("DecodeCursor(%q) accepted garbage", s)
		}
	}
}

func TestEpochFreshPerMemBackend(t *testing.T) {
	a, b := NewMemBackend(0), NewMemBackend(0)
	if a.Epoch() == "" || b.Epoch() == "" {
		t.Fatal("mem backend missing epoch")
	}
	if a.Epoch() == b.Epoch() {
		t.Error("distinct mem backends share an epoch")
	}
	if a.Epoch() != a.Epoch() {
		t.Error("epoch not stable across calls")
	}
}

func TestEpochSurvivesLogReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plus.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := s.Epoch()
	if epoch == "" {
		t.Fatal("no epoch on fresh log")
	}
	putChain(t, s, "a", "b")
	rev := s.Revision()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Epoch() != epoch {
		t.Errorf("epoch changed across reopen: %q -> %q", epoch, s2.Epoch())
	}
	if s2.Revision() != rev {
		t.Errorf("revision changed across reopen: %d -> %d", rev, s2.Revision())
	}
	// The change window replays too: a cursor from before the restart
	// resumes without gaps.
	changes, err := s2.ChangesSince(0)
	if err != nil {
		t.Fatalf("ChangesSince after reopen: %v", err)
	}
	if uint64(len(changes)) != rev {
		t.Errorf("replayed %d changes, want %d", len(changes), rev)
	}
}

// TestCompactRebasesChangeWindow is the regression test for serving
// pre-compact feed entries under the post-compact epoch: compaction
// renumbers history, so the resident change window must be dropped —
// readers behind the compaction point get ErrTooFarBehind (the 410
// resync path), never old records stamped with the new numbering.
func TestCompactRebasesChangeWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plus.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putChain(t, s, "a", "b", "c")
	if err := s.PutObject(Object{ID: "a", Kind: Data, Name: "a2"}); err != nil {
		t.Fatal(err)
	}
	rev := s.Revision()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ChangesSince(0); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("ChangesSince(0) after compact = %v, want ErrTooFarBehind", err)
	}
	if _, err := s.ChangesSince(rev - 1); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("ChangesSince(rev-1) after compact = %v, want ErrTooFarBehind", err)
	}
	// The feed continues cleanly from the compaction point, and the
	// post-compact numbering survives a reopen.
	if err := s.PutObject(Object{ID: "d", Kind: Data}); err != nil {
		t.Fatal(err)
	}
	changes, err := s.ChangesSince(rev)
	if err != nil || len(changes) != 1 || changes[0].Object.ID != "d" {
		t.Fatalf("post-compact feed = %v, %v", changes, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	changes2, err := s2.ChangesSince(rev)
	if err != nil || len(changes2) != 1 || changes2[0].Object.ID != "d" {
		t.Fatalf("post-restart feed from rev %d = %v, %v", rev, changes2, err)
	}
}

func TestCompactRotatesEpochAndKeepsRevisionHeight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plus.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	putChain(t, s, "a", "b", "c")
	// Supersede an object so compaction actually drops history.
	if err := s.PutObject(Object{ID: "a", Kind: Data, Name: "a2"}); err != nil {
		t.Fatal(err)
	}
	oldEpoch := s.Epoch()
	rev := s.Revision()

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() == oldEpoch {
		t.Error("compact did not rotate the epoch")
	}
	if s.Revision() != rev {
		t.Errorf("compact moved the in-process revision: %d -> %d", rev, s.Revision())
	}
	// Write after compaction, then reopen: the replayed counter must
	// resume the same numbering the live process used.
	if err := s.PutObject(Object{ID: "d", Kind: Data}); err != nil {
		t.Fatal(err)
	}
	postEpoch, postRev := s.Epoch(), s.Revision()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Epoch() != postEpoch {
		t.Errorf("epoch changed across post-compact reopen: %q -> %q", postEpoch, s2.Epoch())
	}
	if s2.Revision() != postRev {
		t.Errorf("revision diverged across post-compact reopen: %d -> %d", postRev, s2.Revision())
	}
	if _, err := s2.GetObject("d"); err != nil {
		t.Errorf("post-compact write lost: %v", err)
	}
}

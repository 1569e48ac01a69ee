package plus

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/privilege"
)

// This file is the shared Backend conformance suite: every storage
// implementation must pass the same contract tests, so a future backend
// (a networked shard, say) plugs in with confidence. Durable backends
// additionally run the crash-recovery battery (torn tail, bad CRC,
// mid-log corruption) through the Backend seam rather than against the
// concrete log type.

// backendHarness describes one implementation under test.
type backendHarness struct {
	name string
	// open creates a fresh, empty backend. For durable backends it also
	// returns the path a reopen must recover from; volatile backends
	// return "".
	open func(t *testing.T) (Backend, string)
	// reopen closes nothing: it opens a new backend over the durable
	// state at path. Nil for volatile backends, which skips the
	// durability battery.
	reopen func(t *testing.T, path string) Backend
}

func conformanceHarnesses() []backendHarness {
	return []backendHarness{
		{
			name: "log",
			open: func(t *testing.T) (Backend, string) {
				path := filepath.Join(t.TempDir(), "conformance.log")
				b, err := Open(path, Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.Close() })
				return b, path
			},
			reopen: func(t *testing.T, path string) Backend {
				b, err := Open(path, Options{})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				t.Cleanup(func() { b.Close() })
				return b
			},
		},
		{
			name: "mem",
			open: func(t *testing.T) (Backend, string) {
				b := NewMemBackend(0)
				t.Cleanup(func() { b.Close() })
				return b, ""
			},
		},
	}
}

// TestBackendConformance runs the whole contract against every backend.
func TestBackendConformance(t *testing.T) {
	for _, h := range conformanceHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			t.Run("PutGetValidate", func(t *testing.T) { conformPutGetValidate(t, h) })
			t.Run("AdjacencyAndSurrogates", func(t *testing.T) { conformAdjacency(t, h) })
			t.Run("BatchApply", func(t *testing.T) { conformBatch(t, h) })
			t.Run("RevisionMonotonic", func(t *testing.T) { conformRevision(t, h) })
			t.Run("SnapshotIsolation", func(t *testing.T) { conformSnapshotIsolation(t, h) })
			t.Run("SnapshotClonedOncePerRevision", func(t *testing.T) { conformSnapshotClonedOnce(t, h) })
			t.Run("SnapshotImmutable", func(t *testing.T) { conformSnapshotImmutable(t, h) })
			t.Run("SnapshotImmutableConcurrent", func(t *testing.T) { conformSnapshotImmutableConcurrent(t, h) })
			t.Run("CloseSemantics", func(t *testing.T) { conformClose(t, h) })
			t.Run("ConcurrentReadersWriters", func(t *testing.T) { conformConcurrency(t, h) })
			t.Run("NotifyOnWrite", func(t *testing.T) { conformNotify(t, h) })
			t.Run("ChangesContiguous", func(t *testing.T) { conformChangesContiguous(t, h) })
			t.Run("ChangesMatchSnapshotDiff", func(t *testing.T) { conformChangesSnapshotDiff(t, h) })
			t.Run("ChangesErrors", func(t *testing.T) { conformChangesErrors(t, h) })
			t.Run("WalkMatchesChanges", func(t *testing.T) { conformWalkChanges(t, h) })
			t.Run("ChangeHorizon", func(t *testing.T) { conformChangeHorizon(t, h) })
			t.Run("LineageEngine", func(t *testing.T) { conformLineage(t, h) })
			t.Run("OPMRoundTrip", func(t *testing.T) { conformOPM(t, h) })
			if h.reopen != nil {
				t.Run("ReopenRecovers", func(t *testing.T) { conformReopen(t, h) })
				t.Run("TornTailTruncated", func(t *testing.T) { conformTornTail(t, h) })
				t.Run("BadCRCTailTruncated", func(t *testing.T) { conformBadCRCTail(t, h) })
				t.Run("MidLogCorruptionFails", func(t *testing.T) { conformMidLogCorruption(t, h) })
			}
		})
	}
}

// conformNotify: every mutation path closes the armed Notify channel
// (the /v2/changes long-poll wakeup), an idle backend never fires, and
// Close wakes parked waiters.
func conformNotify(t *testing.T, h backendHarness) {
	b, _ := h.open(t)

	waitClosed := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not broadcast", what)
		}
	}

	ch := b.Notify()
	if err := b.PutObject(Object{ID: "n1", Kind: Data}); err != nil {
		t.Fatal(err)
	}
	waitClosed(ch, "PutObject")

	// A write BETWEEN arming and waiting is still observed: the channel
	// returned before the write is already closed.
	ch = b.Notify()
	if err := b.PutObject(Object{ID: "n2", Kind: Data}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("pre-armed channel not closed by an intervening write")
	}

	ch = b.Notify()
	if err := b.PutEdge(Edge{From: "n1", To: "n2"}); err != nil {
		t.Fatal(err)
	}
	waitClosed(ch, "PutEdge")

	ch = b.Notify()
	if err := b.PutSurrogate(SurrogateSpec{ForID: "n1", ID: "n1'", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	waitClosed(ch, "PutSurrogate")

	ch = b.Notify()
	if _, err := b.Apply(Batch{Objects: []Object{{ID: "n3", Kind: Data}}}); err != nil {
		t.Fatal(err)
	}
	waitClosed(ch, "Apply")

	// Idle: no broadcast.
	ch = b.Notify()
	select {
	case <-ch:
		t.Fatal("idle backend broadcast")
	case <-time.After(20 * time.Millisecond):
	}

	// Close wakes parked waiters.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitClosed(ch, "Close")
}

func seedChain(t *testing.T, b Backend, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := b.PutObject(Object{ID: id, Kind: Data, Name: "obj " + id}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := b.PutEdge(Edge{From: ids[i], To: ids[i+1], Label: "input-to"}); err != nil {
			t.Fatal(err)
		}
	}
}

// conformChangesContiguous: the change feed covers every revision bump
// exactly once, in order, with the revision window semantics of the
// ChangesSince contract.
func conformChangesContiguous(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	seedChain(t, b, "a", "b", "c") // 3 objects + 2 edges
	if err := b.PutSurrogate(SurrogateSpec{ForID: "b", ID: "b'", Name: "anon", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutObject(Object{ID: "a", Kind: Data, Name: "a v2"}); err != nil {
		t.Fatal(err)
	}
	rev := b.Revision()
	if rev != 7 {
		t.Fatalf("revision = %d, want 7", rev)
	}
	changes, err := b.ChangesSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 7 {
		t.Fatalf("ChangesSince(0) = %d changes, want 7", len(changes))
	}
	for i, c := range changes {
		if c.Rev != uint64(i)+1 {
			t.Fatalf("changes[%d].Rev = %d, want %d", i, c.Rev, i+1)
		}
	}
	// Kinds in application order.
	wantKinds := []ChangeKind{ChangeObject, ChangeObject, ChangeObject, ChangeEdge, ChangeEdge, ChangeSurrogate, ChangeObject}
	for i, c := range changes {
		if c.Kind != wantKinds[i] {
			t.Errorf("changes[%d].Kind = %d, want %d", i, c.Kind, wantKinds[i])
		}
	}
	if changes[6].Object.Name != "a v2" {
		t.Errorf("replacement change carries %q, want the new record", changes[6].Object.Name)
	}
	// Suffix windows.
	tail, err := b.ChangesSince(5)
	if err != nil || len(tail) != 2 || tail[0].Rev != 6 {
		t.Fatalf("ChangesSince(5) = %v, %v", tail, err)
	}
	empty, err := b.ChangesSince(rev)
	if err != nil || len(empty) != 0 {
		t.Fatalf("ChangesSince(rev) = %v, %v, want empty", empty, err)
	}
	if _, err := b.ChangesSince(rev + 1); err == nil {
		t.Error("future revision accepted")
	}
}

// conformChangesSnapshotDiff: replaying the change window (a, b] onto
// snapshot A's contents reproduces snapshot B exactly.
func conformChangesSnapshotDiff(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	seedChain(t, b, "a", "b")
	snA, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if err := b.PutObject(Object{ID: "c", Kind: Data, Name: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutEdge(Edge{From: "b", To: "c", Label: "input-to"}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutObject(Object{ID: "a", Kind: Data, Name: "a v2"}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutSurrogate(SurrogateSpec{ForID: "a", ID: "a'", Name: "anon", InfoScore: 0.3}); err != nil {
		t.Fatal(err)
	}
	snB, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	delta, err := snB.DeltaSince(snA.Revision())
	if err != nil {
		t.Fatal(err)
	}
	if delta.Since != snA.Revision() || delta.Rev != snB.Revision() {
		t.Fatalf("delta window = (%d, %d], want (%d, %d]", delta.Since, delta.Rev, snA.Revision(), snB.Revision())
	}

	// Reconstruct B's contents from A plus the delta.
	objects := map[string]Object{}
	out := map[string][]Edge{}
	surr := map[string][]SurrogateSpec{}
	for _, o := range snA.Objects() {
		objects[o.ID] = o
		out[o.ID] = append([]Edge(nil), snA.Out(o.ID)...)
		surr[o.ID] = append([]SurrogateSpec(nil), snA.Surrogates(o.ID)...)
	}
	for _, c := range delta.Changes {
		switch c.Kind {
		case ChangeObject:
			objects[c.Object.ID] = c.Object
		case ChangeEdge:
			out[c.Edge.From] = append(out[c.Edge.From], c.Edge)
		case ChangeSurrogate:
			surr[c.Surrogate.ForID] = append(surr[c.Surrogate.ForID], c.Surrogate)
		}
	}
	if len(objects) != snB.NumObjects() {
		t.Fatalf("reconstructed %d objects, snapshot B has %d", len(objects), snB.NumObjects())
	}
	for id, o := range objects {
		got, ok := snB.Object(id)
		if !ok || got.Name != o.Name {
			t.Errorf("object %s: reconstructed %+v, snapshot %+v (ok=%v)", id, o, got, ok)
		}
		if fmt.Sprint(out[id]) != fmt.Sprint(snB.Out(id)) {
			t.Errorf("out(%s): reconstructed %v, snapshot %v", id, out[id], snB.Out(id))
		}
		if fmt.Sprint(surr[id]) != fmt.Sprint(snB.Surrogates(id)) {
			t.Errorf("surrogates(%s): reconstructed %v, snapshot %v", id, surr[id], snB.Surrogates(id))
		}
	}

	// A snapshot never reports changes past its own revision even after
	// the backend advances.
	if err := b.PutObject(Object{ID: "late", Kind: Data, Name: "late"}); err != nil {
		t.Fatal(err)
	}
	again, err := snB.DeltaSince(snA.Revision())
	if err != nil {
		t.Fatal(err)
	}
	if again.Rev != snB.Revision() || len(again.Changes) != len(delta.Changes) {
		t.Errorf("delta after later writes = (%d, %d] with %d changes; want the original window",
			again.Since, again.Rev, len(again.Changes))
	}
}

// conformChangesErrors: the feed fails cleanly after Close.
// conformWalkChanges: the zero-copy walk visits exactly the changes the
// materialized feed reports — each revision once, same-id changes in
// revision order — honours the upTo bound, and reports an evicted window
// as ErrTooFarBehind.
func conformWalkChanges(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	w, ok := b.(interface {
		walkChangesSince(since, upTo uint64, visit func(*Change)) error
	})
	if !ok {
		t.Fatalf("%T does not implement walkChangesSince", b)
	}
	seedChain(t, b, "a", "b", "c") // 3 objects + 2 edges
	if err := b.PutSurrogate(SurrogateSpec{ForID: "b", ID: "b'", Name: "anon", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutObject(Object{ID: "a", Kind: Data, Name: "a v2"}); err != nil {
		t.Fatal(err)
	}
	rev := b.Revision()

	collect := func(since, upTo uint64) map[uint64]Change {
		t.Helper()
		got := map[uint64]Change{}
		err := w.walkChangesSince(since, upTo, func(c *Change) {
			if _, dup := got[c.Rev]; dup {
				t.Fatalf("revision %d visited twice", c.Rev)
			}
			got[c.Rev] = *c
		})
		if err != nil {
			t.Fatalf("walkChangesSince(%d, %d): %v", since, upTo, err)
		}
		return got
	}

	want, err := b.ChangesSince(0)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(0, rev)
	if len(got) != len(want) {
		t.Fatalf("walk visited %d changes, ChangesSince reports %d", len(got), len(want))
	}
	for _, c := range want {
		g, visited := got[c.Rev]
		if !visited {
			t.Fatalf("revision %d not visited", c.Rev)
		}
		if g.Kind != c.Kind || g.Object.ID != c.Object.ID || g.Object.Name != c.Object.Name ||
			g.Edge != c.Edge || g.Surrogate.ID != c.Surrogate.ID {
			t.Errorf("revision %d: walk saw %+v, feed reports %+v", c.Rev, g, c)
		}
	}

	// The upTo bound truncates, and an empty window visits nothing.
	mid := collect(2, 5)
	if len(mid) != 3 {
		t.Fatalf("walk of (2, 5] visited %d changes, want 3", len(mid))
	}
	for r := uint64(3); r <= 5; r++ {
		if _, visited := mid[r]; !visited {
			t.Errorf("walk of (2, 5] missed revision %d", r)
		}
	}
	if empty := collect(rev, rev); len(empty) != 0 {
		t.Errorf("walk of the empty window visited %d changes", len(empty))
	}

	// Changes to one id arrive in revision order (here: the store of "a"
	// before its replacement).
	var aRevs []uint64
	if err := w.walkChangesSince(0, rev, func(c *Change) {
		if c.Kind == ChangeObject && c.Object.ID == "a" {
			aRevs = append(aRevs, c.Rev)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(aRevs) != 2 || aRevs[0] >= aRevs[1] {
		t.Errorf("changes of %q visited at revisions %v, want two in order", "a", aRevs)
	}

	if err := w.walkChangesSince(rev+1, rev+1, func(*Change) {}); err == nil {
		t.Error("future since accepted")
	}

	// An evicted window must surface as ErrTooFarBehind, the rebuild
	// signal.
	b.(interface{ SetChangeHorizon(int) }).SetChangeHorizon(1)
	if err := w.walkChangesSince(0, rev, func(*Change) {}); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("walk over the evicted window = %v, want ErrTooFarBehind", err)
	}
}

func conformChangesErrors(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	seedChain(t, b, "a", "b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ChangesSince(0); !errors.Is(err, ErrClosed) {
		t.Errorf("ChangesSince after Close = %v, want ErrClosed", err)
	}
}

// TestLogBackendChangeHorizon exercises the durable backend's bounded
// resident window: the log keeps the full history on disk, but only the
// recent window answers ChangesSince — older requests take the
// too-far-behind rebuild path.
func TestLogBackendChangeHorizon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "horizon.log")
	b, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if h := b.ChangeWindow().Horizon; h != DefaultChangeHorizon {
		t.Fatalf("default horizon = %d", h)
	}
	b.SetChangeHorizon(4)
	for i := 0; i < 20; i++ {
		if err := b.PutObject(Object{ID: fmt.Sprintf("o%d", i), Kind: Data, Name: "o"}); err != nil {
			t.Fatal(err)
		}
	}
	rev := b.Revision()
	if got, err := b.ChangesSince(rev - 4); err != nil || len(got) != 4 {
		t.Fatalf("ChangesSince(rev-4) = %d changes, %v", len(got), err)
	}
	if _, err := b.ChangesSince(0); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("ChangesSince(0) = %v, want ErrTooFarBehind", err)
	}
	// Shrinking discards the oldest retained entries.
	b.SetChangeHorizon(1)
	if _, err := b.ChangesSince(rev - 2); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("after shrink, ChangesSince(rev-2) = %v, want ErrTooFarBehind", err)
	}
	if got, err := b.ChangesSince(rev - 1); err != nil || len(got) != 1 {
		t.Errorf("after shrink, ChangesSince(rev-1) = %d changes, %v", len(got), err)
	}
	// The log itself still holds everything: a reopen replays the full
	// history (fresh window, fresh revision numbering).
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	if b2.NumObjects() != 20 {
		t.Fatalf("reopened objects = %d, want 20", b2.NumObjects())
	}
	if got, err := b2.ChangesSince(0); err != nil || len(got) != 20 {
		t.Errorf("reopened ChangesSince(0) = %d changes, %v", len(got), err)
	}
}

// conformChangeHorizon: the horizon counts changes over the whole store.
// After SetChangeHorizon(n) and 3n writes the newest n are served, the
// window's Base is the exact oldest resumable position, shrinking discards
// the oldest entries, and concurrent writers still leave one contiguous
// feed.
func conformChangeHorizon(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	hb := b.(interface{ SetChangeHorizon(int) })
	const n = 8
	hb.SetChangeHorizon(n)
	for i := 0; i < 3*n; i++ {
		if err := b.PutObject(Object{ID: fmt.Sprintf("o%d", i), Kind: Data, Name: "o"}); err != nil {
			t.Fatal(err)
		}
	}
	rev := b.Revision()
	if got, err := b.ChangesSince(rev - n); err != nil || len(got) != n {
		t.Fatalf("ChangesSince(rev-%d) = %d changes, %v", n, len(got), err)
	}
	if _, err := b.ChangesSince(0); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("ChangesSince(0) = %v, want ErrTooFarBehind", err)
	}
	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.DeltaSince(0); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("DeltaSince(0) = %v, want ErrTooFarBehind", err)
	}
	w := b.ChangeWindow()
	if w.Base == 0 {
		t.Fatalf("window base = 0 after %d writes under horizon %d", 3*n, n)
	}
	if got, err := b.ChangesSince(w.Base); err != nil || uint64(len(got)) != rev-w.Base {
		t.Errorf("ChangesSince(base %d) = %d changes, %v; want %d", w.Base, len(got), err, rev-w.Base)
	}
	if _, err := b.ChangesSince(w.Base - 1); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("ChangesSince(base-1) = %v, want ErrTooFarBehind", err)
	}
	if uint64(w.Depth) != rev-w.Base || w.Horizon != n {
		t.Errorf("window = %+v at revision %d, want depth %d and horizon %d", w, rev, rev-w.Base, n)
	}

	hb.SetChangeHorizon(1)
	if _, err := b.ChangesSince(rev - 2); !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("after shrink, ChangesSince(rev-2) = %v, want ErrTooFarBehind", err)
	}
	if got, err := b.ChangesSince(rev - 1); err != nil || len(got) != 1 {
		t.Errorf("after shrink, ChangesSince(rev-1) = %d changes, %v", len(got), err)
	}

	const writers, each = 4, 50
	hb.SetChangeHorizon(writers * each)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.PutObject(Object{ID: fmt.Sprintf("w%d-%d", w, i), Kind: Data, Name: "w"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	all, err := b.ChangesSince(rev)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != writers*each {
		t.Fatalf("feed has %d changes after concurrent writes, want %d", len(all), writers*each)
	}
	for i, c := range all {
		if c.Rev != rev+uint64(i)+1 {
			t.Fatalf("feed gap at %d: rev %d", i, c.Rev)
		}
	}
}

func conformPutGetValidate(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	o := Object{ID: "d1", Kind: Data, Name: "report", Features: map[string]string{"fmt": "pdf"}, Lowest: "Secret"}
	if err := b.PutObject(o); err != nil {
		t.Fatal(err)
	}
	got, err := b.GetObject("d1")
	if err != nil || got.Name != "report" || got.Features["fmt"] != "pdf" {
		t.Errorf("GetObject = %+v, %v", got, err)
	}
	if _, err := b.GetObject("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object error = %v", err)
	}
	if err := b.PutObject(Object{ID: "", Kind: Data}); err == nil {
		t.Error("empty id accepted")
	}
	if err := b.PutObject(Object{ID: "x", Kind: "banana"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := b.PutObject(Object{ID: "x", Kind: Data, Protect: "mangle"}); err == nil {
		t.Error("unknown protect mode accepted")
	}
	seedChain(t, b, "a", "b")
	if err := b.PutEdge(Edge{From: "a", To: "zzz"}); err == nil {
		t.Error("edge to missing object accepted")
	}
	if err := b.PutEdge(Edge{From: "zzz", To: "a"}); err == nil {
		t.Error("edge from missing object accepted")
	}
	if err := b.PutEdge(Edge{From: "a", To: "a"}); err == nil {
		t.Error("self edge accepted")
	}
	if err := b.PutEdge(Edge{From: "a", To: "b"}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := b.PutSurrogate(SurrogateSpec{ForID: "zzz", ID: "z'"}); err == nil {
		t.Error("surrogate for missing object accepted")
	}
	if err := b.PutSurrogate(SurrogateSpec{ForID: "a", ID: "a"}); err == nil {
		t.Error("surrogate id == original accepted")
	}
	if err := b.PutSurrogate(SurrogateSpec{ForID: "a", ID: "a'", InfoScore: 2}); err == nil {
		t.Error("bad infoScore accepted")
	}
}

func conformAdjacency(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	seedChain(t, b, "a", "b", "c")
	if err := b.PutSurrogate(SurrogateSpec{ForID: "b", ID: "b'", Name: "anon", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := b.EdgesFrom("a"); len(got) != 1 || got[0].To != "b" {
		t.Errorf("EdgesFrom(a) = %+v", got)
	}
	if got := b.EdgesTo("c"); len(got) != 1 || got[0].From != "b" {
		t.Errorf("EdgesTo(c) = %+v", got)
	}
	if got := b.SurrogatesOf("b"); len(got) != 1 || got[0].ID != "b'" {
		t.Errorf("SurrogatesOf(b) = %+v", got)
	}
	if b.NumObjects() != 3 || b.NumEdges() != 2 {
		t.Errorf("counts = %d objects %d edges, want 3, 2", b.NumObjects(), b.NumEdges())
	}
	if got := b.Objects(); len(got) != 3 {
		t.Errorf("Objects() = %d items", len(got))
	}
}

func conformBatch(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	batch := Batch{
		Objects: []Object{
			{ID: "x", Kind: Data, Name: "x"},
			{ID: "y", Kind: Invocation, Name: "y"},
		},
		Edges:      []Edge{{From: "x", To: "y", Label: "input-to"}},
		Surrogates: []SurrogateSpec{{ForID: "y", ID: "y'", Name: "anon", InfoScore: 0.3}},
	}
	if _, err := b.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if b.NumObjects() != 2 || b.NumEdges() != 1 {
		t.Errorf("after batch: %d objects %d edges", b.NumObjects(), b.NumEdges())
	}
	if got := b.SurrogatesOf("y"); len(got) != 1 {
		t.Errorf("surrogates = %+v", got)
	}

	// A bad batch must leave the backend untouched.
	rev := b.Revision()
	bad := Batch{
		Objects: []Object{{ID: "z", Kind: Data, Name: "z"}},
		Edges:   []Edge{{From: "z", To: "missing"}},
	}
	if _, err := b.Apply(bad); err == nil {
		t.Fatal("bad batch accepted")
	}
	if b.Revision() != rev {
		t.Error("failed batch moved the revision")
	}
	if _, err := b.GetObject("z"); !errors.Is(err, ErrNotFound) {
		t.Error("failed batch left partial state")
	}
	// Empty batch is a no-op.
	if _, err := b.Apply(Batch{}); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func conformRevision(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	r0 := b.Revision()
	if err := b.PutObject(Object{ID: "a", Kind: Data, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	r1 := b.Revision()
	if r1 <= r0 {
		t.Errorf("revision did not advance: %d -> %d", r0, r1)
	}
	seedChain(t, b, "b", "c")
	if b.Revision() != r1+3 { // 2 objects + 1 edge
		t.Errorf("revision = %d, want %d (one bump per record)", b.Revision(), r1+3)
	}
}

// conformSnapshotClonedOnce: readers released together after a write all
// receive the one clone of the new revision, not a clone each.
func conformSnapshotClonedOnce(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	var seed Batch
	for i := 0; i < 2000; i++ { // big enough that a clone outlasts a goroutine start
		seed.Objects = append(seed.Objects, Object{ID: fmt.Sprintf("s%04d", i), Kind: Data, Name: "s"})
	}
	if _, err := b.Apply(seed); err != nil {
		t.Fatal(err)
	}
	const readers = 8
	for round := 0; round < 20; round++ {
		if err := b.PutObject(Object{ID: fmt.Sprintf("w%d", round), Kind: Data, Name: "w"}); err != nil {
			t.Fatal(err)
		}
		var (
			wg      sync.WaitGroup
			release = make(chan struct{})
			got     [readers]*Snapshot
		)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-release
				sn, err := b.Snapshot()
				if err != nil {
					t.Error(err)
				}
				got[i] = sn
			}(i)
		}
		close(release)
		wg.Wait()
		for i := 1; i < readers; i++ {
			if got[i] != got[0] {
				t.Fatalf("round %d: reader %d got its own clone of revision %d", round, i, got[i].Revision())
			}
		}
	}
}

func conformSnapshotIsolation(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	seedChain(t, b, "a", "b")
	sn1, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn1.Revision() != b.Revision() {
		t.Errorf("snapshot rev %d != store rev %d", sn1.Revision(), b.Revision())
	}
	// Repeated snapshots with no writes are the same clone (cached).
	sn1b, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn1 != sn1b {
		t.Error("unchanged store returned a fresh snapshot clone")
	}

	// Writes are invisible to the old snapshot...
	if err := b.PutObject(Object{ID: "c", Kind: Data, Name: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutEdge(Edge{From: "b", To: "c"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := sn1.Object("c"); ok {
		t.Error("old snapshot sees later object")
	}
	if len(sn1.Out("b")) != 0 {
		t.Error("old snapshot sees later edge")
	}
	if got, ok := sn1.Object("a"); !ok || got.Name != "obj a" {
		t.Errorf("old snapshot lost object a: %+v %v", got, ok)
	}

	// ...and a fresh snapshot sees them.
	sn2, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn2 == sn1 {
		t.Error("snapshot not invalidated by write")
	}
	if _, ok := sn2.Object("c"); !ok {
		t.Error("new snapshot missing new object")
	}
	if len(sn2.Out("b")) != 1 {
		t.Error("new snapshot missing new edge")
	}
	if sn2.Revision() <= sn1.Revision() {
		t.Errorf("snapshot revisions not monotonic: %d then %d", sn1.Revision(), sn2.Revision())
	}
}

func conformClose(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	seedChain(t, b, "a", "b")
	if err := b.Ping(); err != nil {
		t.Errorf("ping on open backend: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := b.Ping(); !errors.Is(err, ErrClosed) {
		t.Errorf("ping after close = %v", err)
	}
	if err := b.PutObject(Object{ID: "x", Kind: Data}); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close = %v", err)
	}
	if _, err := b.GetObject("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close = %v", err)
	}
	if _, err := b.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Errorf("snapshot after close = %v", err)
	}
	if _, err := b.Apply(Batch{Objects: []Object{{ID: "y", Kind: Data}}}); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close = %v", err)
	}
}

func conformConcurrency(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := b.PutObject(Object{ID: id, Kind: Data, Name: id}); err != nil {
					t.Errorf("put %s: %v", id, err)
					return
				}
				if _, err := b.GetObject(id); err != nil {
					t.Errorf("get %s: %v", id, err)
					return
				}
				if _, err := b.Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if b.NumObjects() != workers*25 {
		t.Errorf("objects = %d, want %d", b.NumObjects(), workers*25)
	}
	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.NumObjects() != workers*25 {
		t.Errorf("snapshot objects = %d, want %d", sn.NumObjects(), workers*25)
	}
}

// conformLineage runs the query engine over the backend: the same
// protected-lineage answer must come out of every implementation.
func conformLineage(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	_, err := b.Apply(Batch{
		Objects: []Object{
			{ID: "src", Kind: Data, Name: "raw feed"},
			{ID: "proc", Kind: Invocation, Name: "secret analytic", Lowest: "Protected", Protect: "surrogate"},
			{ID: "out", Kind: Data, Name: "derived table"},
			{ID: "report", Kind: Data, Name: "final report"},
		},
		Edges: []Edge{
			{From: "src", To: "proc", Label: "input-to"},
			{From: "proc", To: "out", Label: "generated"},
			{From: "out", To: "report", Label: "input-to"},
		},
		Surrogates: []SurrogateSpec{
			{ForID: "proc", ID: "proc'", Name: "an analytic", InfoScore: 0.4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(b, privilege.TwoLevel())
	res, err := en.Lineage(Request{Start: "report", Direction: graph.Backward, Viewer: privilege.Public})
	if err != nil {
		t.Fatal(err)
	}
	// The public viewer sees the full ancestry with the secret analytic
	// replaced by its surrogate.
	if n := res.Account.Graph.NumNodes(); n != 4 {
		t.Errorf("account nodes = %d, want 4", n)
	}
	if _, ok := res.Account.Graph.NodeByID("proc'"); !ok {
		t.Error("surrogate proc' missing from public account")
	}
	if _, ok := res.Account.Graph.NodeByID("proc"); ok {
		t.Error("protected node leaked into public account")
	}
	// A privileged viewer sees the original.
	priv, err := en.Lineage(Request{Start: "report", Direction: graph.Backward, Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := priv.Account.Graph.NodeByID("proc"); !ok {
		t.Error("privileged viewer lost the original node")
	}
}

func conformOPM(t *testing.T, h backendHarness) {
	src, _ := h.open(t)
	seedChain(t, src, "a", "b", "c")
	var buf bytes.Buffer
	if err := ExportOPM(src, &buf); err != nil {
		t.Fatal(err)
	}
	dst, _ := h.open(t)
	if err := ImportOPM(dst, &buf); err != nil {
		t.Fatal(err)
	}
	if dst.NumObjects() != 3 || dst.NumEdges() != 2 {
		t.Errorf("round trip = %d objects %d edges, want 3, 2", dst.NumObjects(), dst.NumEdges())
	}
}

// --- durability battery (durable backends only) ---

func conformReopen(t *testing.T, h backendHarness) {
	b, path := h.open(t)
	seedChain(t, b, "a", "b", "c")
	if err := b.PutSurrogate(SurrogateSpec{ForID: "b", ID: "b'", Name: "anon", InfoScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := h.reopen(t, path)
	if b2.NumObjects() != 3 || b2.NumEdges() != 2 {
		t.Errorf("recovered %d objects %d edges, want 3, 2", b2.NumObjects(), b2.NumEdges())
	}
	if got := b2.SurrogatesOf("b"); len(got) != 1 {
		t.Error("surrogate lost on reopen")
	}
	// The backend stays writable after recovery.
	if err := b2.PutObject(Object{ID: "d", Kind: Invocation, Name: "proc"}); err != nil {
		t.Fatal(err)
	}
}

func conformTornTail(t *testing.T, h backendHarness) {
	b, path := h.open(t)
	seedChain(t, b, "a", "b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a half-written record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2 := h.reopen(t, path)
	if b2.NumObjects() != 2 || b2.NumEdges() != 1 {
		t.Errorf("recovered %d objects %d edges, want 2, 1", b2.NumObjects(), b2.NumEdges())
	}
	// New appends land where the torn tail was removed, and survive
	// another reopen.
	if err := b2.PutObject(Object{ID: "c", Kind: Data, Name: "after-crash"}); err != nil {
		t.Fatal(err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	b3 := h.reopen(t, path)
	if b3.NumObjects() != 3 {
		t.Errorf("objects after re-recovery = %d, want 3", b3.NumObjects())
	}
}

func conformBadCRCTail(t *testing.T, h backendHarness) {
	b, path := h.open(t)
	seedChain(t, b, "a", "b")
	sizeBefore := b.Size()
	if err := b.PutObject(Object{ID: "c", Kind: Data, Name: "victim"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
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

	b2 := h.reopen(t, path)
	if b2.NumObjects() != 2 {
		t.Errorf("objects = %d, want 2 (corrupt tail dropped)", b2.NumObjects())
	}
	sn, err := b2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sn.Object("c"); ok {
		t.Error("corrupt record resurrected in snapshot")
	}
}

func conformMidLogCorruption(t *testing.T, h backendHarness) {
	b, path := h.open(t)
	seedChain(t, b, "a", "b", "c", "d")
	if err := b.Close(); err != nil {
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

package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// newCountingPrimary is newPrimary with a snapshot-download counter, so
// restart tests can prove a resume replayed the feed instead of
// re-bootstrapping.
func newCountingPrimary(t *testing.T) (*plus.MemBackend, *httptest.Server, *plusclient.Client, *atomic.Int64) {
	t.Helper()
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(m, lat))
	plusql.Attach(srv, plusql.NewEngine(m, lat))
	var snapshots atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/snapshot" {
			snapshots.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return m, ts, plusclient.New(ts.URL, plusclient.WithViewer("Protected")), &snapshots
}

// durableFollower builds a replica over a LogBackend at dir with a state
// sidecar, simulating one plusd -follow process lifetime.
func durableFollower(t *testing.T, primary, dir string) (*Replica, *plus.LogBackend) {
	t.Helper()
	dbPath := filepath.Join(dir, "follower.db")
	lb, err := plus.Open(dbPath, plus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Primary:      primary,
		Backend:      lb,
		StatePath:    DefaultStatePath(dbPath),
		FlushEvery:   8,
		Wait:         100 * time.Millisecond,
		PollInterval: -1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, lb
}

// TestRestartResumesCursor kills a durable follower mid-life, restarts
// it, and proves the second life resumed from the persisted cursor —
// no snapshot re-download — while converging exactly-once.
func TestRestartResumesCursor(t *testing.T) {
	pm, ts, c, snapshots := newCountingPrimary(t)
	ingestChain(t, c, "first", 20)
	dir := t.TempDir()

	// First life: bootstrap (one snapshot), catch up, die.
	r1, lb1 := durableFollower(t, ts.URL, dir)
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := r1.Start(ctx1); err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- r1.Run(ctx1) }()
	waitForRev(t, r1, pm.Revision())
	cancel1()
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	if err := lb1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshots.Load(); got != 1 {
		t.Fatalf("first life downloaded %d snapshots, want 1", got)
	}

	// The primary moves on while the follower is dead.
	ingestChain(t, c, "second", 20)

	// Second life: resume from the sidecar, replay only the gap.
	r2, lb2 := durableFollower(t, ts.URL, dir)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := r2.Start(ctx2); err != nil {
		t.Fatal(err)
	}
	if lb2.NumObjects() != 20 {
		t.Fatalf("reopened store has %d objects, want 20", lb2.NumObjects())
	}
	done2 := make(chan error, 1)
	go func() { done2 <- r2.Run(ctx2) }()
	waitForRev(t, r2, pm.Revision())

	if got := snapshots.Load(); got != 1 {
		t.Errorf("restart re-downloaded the snapshot (%d total), cursor resume broken", got)
	}
	if pm.NumObjects() != lb2.NumObjects() || pm.NumEdges() != lb2.NumEdges() {
		t.Errorf("counts: primary %d/%d vs follower %d/%d",
			pm.NumObjects(), pm.NumEdges(), lb2.NumObjects(), lb2.NumEdges())
	}
	// Exactly-once: the reopened store replayed every record of its log
	// into its feed, so a replayed re-apply of these never-overwritten
	// objects would show up as a second store.
	for i := 0; i < 20; i++ {
		for _, prefix := range []string{"first", "second"} {
			id := fmt.Sprintf("%s-%d", prefix, i)
			if n := objectWrites(t, lb2, id); n != 1 {
				t.Errorf("follower stored %s %d times, want 1", id, n)
			}
		}
	}
	h := r2.Health()
	if h.State != string(StateFollowing) || h.LagRevisions != 0 {
		t.Errorf("post-restart health = %+v", h)
	}
	cancel2()
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop")
	}
	if err := lb2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartReplayAfterTornCursor simulates the crash window between a
// flushed apply and the cursor write: the sidecar points BEFORE records
// the store already holds, so the restart replays them — and the
// idempotent filter must absorb the replay without duplicates.
func TestRestartReplayAfterTornCursor(t *testing.T) {
	pm, ts, c, _ := newCountingPrimary(t)
	ingestChain(t, c, "early", 10)
	earlySnapshotRev := pm.Revision()
	dir := t.TempDir()

	r1, lb1 := durableFollower(t, ts.URL, dir)
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := r1.Start(ctx1); err != nil {
		t.Fatal(err)
	}
	earlyCursor := r1.Cursor()
	done1 := make(chan error, 1)
	go func() { done1 <- r1.Run(ctx1) }()
	ingestChain(t, c, "late", 10)
	waitForRev(t, r1, pm.Revision())
	cancel1()
	<-done1
	if err := lb1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the sidecar back to the bootstrap-time cursor: the store holds
	// the "late" records the cursor claims not to have seen.
	statePath := DefaultStatePath(filepath.Join(dir, "follower.db"))
	st := stateFile{Cursor: earlyCursor, Lattice: privilege.TwoLevel().Pairs()}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, lb2 := durableFollower(t, ts.URL, dir)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := r2.Start(ctx2); err != nil {
		t.Fatal(err)
	}
	if got := r2.Health().AppliedRev; got != earlySnapshotRev {
		t.Fatalf("resumed at rev %d, want torn rev %d", got, earlySnapshotRev)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- r2.Run(ctx2) }()
	waitForRev(t, r2, pm.Revision())

	// The replayed window covered the "late" records the store already
	// held; the idempotent filter must have absorbed them (a blind
	// re-apply would store each a second time).
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("late-%d", i)
		if n := objectWrites(t, lb2, id); n != 1 {
			t.Errorf("follower stored %s %d times after replay, want 1", id, n)
		}
	}
	if pm.NumEdges() != lb2.NumEdges() {
		t.Errorf("edges: primary %d vs follower %d", pm.NumEdges(), lb2.NumEdges())
	}
	cancel2()
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop")
	}
	if err := lb2.Close(); err != nil {
		t.Fatal(err)
	}
}

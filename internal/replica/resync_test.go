package replica

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestResyncAfterHorizonEviction parks a follower on a cursor, evicts
// that cursor from the primary's change window, and proves the restarted
// follow loop heals through the 410 with a snapshot rebase — counted in
// Health().Resyncs — and converges without duplicating records.
func TestResyncAfterHorizonEviction(t *testing.T) {
	pm, ts, c := newPrimary(t)
	ingestChain(t, c, "base", 10)

	r, fm := newFollower(t, ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	waitForRev(t, r, pm.Revision())
	staleCursor := r.Cursor()

	// Park the follower, then push the primary far past its (shrunken)
	// change horizon so staleCursor stops resolving.
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	pm.SetChangeHorizon(8)
	for i := 0; i < 100; i++ {
		ingestChain(t, c, fmt.Sprintf("post-%d", i), 2)
	}

	if r.Cursor() != staleCursor {
		t.Fatalf("cursor moved while parked")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done2 := make(chan error, 1)
	go func() { done2 <- r.Run(ctx2) }()
	waitForRev(t, r, pm.Revision())

	h := r.Health()
	if h.Resyncs < 1 {
		t.Errorf("resyncs = %d, want >= 1", h.Resyncs)
	}
	if pm.NumObjects() != fm.NumObjects() || pm.NumEdges() != fm.NumEdges() {
		t.Errorf("post-resync counts: primary %d/%d vs follower %d/%d",
			pm.NumObjects(), pm.NumEdges(), fm.NumObjects(), fm.NumEdges())
	}
	// The rebase diff-applied the snapshot: no object the follower already
	// held was stored again.
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("base-%d", i)
		if n := objectWrites(t, fm, id); n != 1 {
			t.Errorf("follower stored %s %d times, want 1", id, n)
		}
	}
	cancel2()
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop")
	}
	assertParity(t, pm, fm, r)
}

// TestResyncHealsApplyFailure: a mid-stream failure path — the follow
// loop's resync() (snapshot rebase outside a 410) also converges and
// counts on the resyncs metric.
func TestManualResyncConverges(t *testing.T) {
	pm, ts, c := newPrimary(t)
	ingestChain(t, c, "a", 10)
	r, fm := newFollower(t, ts.URL)
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestChain(t, c, "b", 10)
	if err := r.resync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fm.NumObjects() != pm.NumObjects() {
		t.Fatalf("objects = %d, want %d", fm.NumObjects(), pm.NumObjects())
	}
	if got := r.Health().Resyncs; got != 1 {
		t.Errorf("resyncs = %d, want 1", got)
	}
}

package replica

import (
	"context"
	"testing"
	"time"
)

// TestCoalesceBatchesApplies proves the group-commit window holds
// trickled events back and applies them in far fewer local batches than
// events, while still converging within the window.
func TestCoalesceBatchesApplies(t *testing.T) {
	pm, ts, c := newPrimary(t)
	r, fm := newFollower(t, ts.URL, func(cfg *Config) {
		cfg.Coalesce = 60 * time.Millisecond
		cfg.FlushEvery = 10_000 // let the window, not the cap, drive flushes
	})
	_, _ = runFollower(t, r)

	// Trickle writes one at a time: without coalescing each would sync
	// (and flush) individually.
	const writes = 40
	for i := 0; i < writes; i++ {
		ingestChain(t, c, chainName(i), 1)
		time.Sleep(2 * time.Millisecond)
	}
	waitForRev(t, r, pm.Revision())

	h := r.Health()
	if h.Applied != writes {
		t.Fatalf("applied %d events, want %d", h.Applied, writes)
	}
	// ~80ms of trickle at a 60ms window: a handful of batches. The exact
	// count is timing-dependent; the claim is only "far fewer than one
	// per event".
	if h.Batches >= writes/2 {
		t.Errorf("batches = %d for %d events; coalescing did nothing", h.Batches, writes)
	}
	if fm.NumObjects() != pm.NumObjects() {
		t.Errorf("objects = %d, want %d", fm.NumObjects(), pm.NumObjects())
	}
}

// A coalescing follower left idle must still drain its buffer: the
// armed window fires without any further event arriving.
func TestCoalesceDrainsWithoutFurtherEvents(t *testing.T) {
	pm, ts, c := newPrimary(t)
	r, _ := newFollower(t, ts.URL, func(cfg *Config) {
		cfg.Coalesce = 30 * time.Millisecond
	})
	_, _ = runFollower(t, r)

	ingestChain(t, c, "only", 3)
	// No more writes: only the AfterFunc can flush this.
	waitForRev(t, r, pm.Revision())
	waitCaughtUp(t, r)
}

func chainName(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+i/26))
}

func contextWithTimeout(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

package replica

import (
	"context"
	"testing"

	"repro/internal/plus"
	"repro/pkg/plusclient"
)

// clashBatches are two client batches that leave a primary holding a
// surrogate whose id names an object: y's surrogate x is stored while no
// object is called x (ingest cannot refuse it then), and object x comes
// afterwards.
func clashBatches() (first, second plusclient.BatchRequest) {
	first = plusclient.BatchRequest{
		Objects: []plus.Object{
			{ID: "a", Kind: plus.Data, Name: "product"},
			{ID: "y", Kind: plus.Invocation, Name: "secret step", Lowest: "Protected", Protect: "surrogate"},
		},
		Edges:      []plus.Edge{{From: "y", To: "a", Label: "generated"}},
		Surrogates: []plus.SurrogateSpec{{ForID: "y", ID: "x", Name: "a step", InfoScore: 0.5}},
	}
	second = plusclient.BatchRequest{
		Objects: []plus.Object{{ID: "x", Kind: plus.Data, Name: "public input"}},
		Edges:   []plus.Edge{{From: "x", To: "a", Label: "input-to"}},
	}
	return first, second
}

// checkClashReplicated: the follower holds the same records as the
// primary, the clashing surrogate included.
func checkClashReplicated(t *testing.T, pm, fm *plus.MemBackend) {
	t.Helper()
	if pm.NumObjects() != fm.NumObjects() || pm.NumEdges() != fm.NumEdges() {
		t.Fatalf("counts: primary %d/%d vs follower %d/%d",
			pm.NumObjects(), pm.NumEdges(), fm.NumObjects(), fm.NumEdges())
	}
	if got := fm.SurrogatesOf("y"); len(got) != 1 || got[0].ID != "x" {
		t.Fatalf("follower surrogates of y = %+v, want the one named x", got)
	}
}

// TestFollowerBootstrapsSurrogateNamedBeforeItsObject: a fresh follower's
// bootstrap rebase puts object x and y's surrogate x in one batch; it must
// converge on such a primary rather than refuse the batch forever.
func TestFollowerBootstrapsSurrogateNamedBeforeItsObject(t *testing.T) {
	pm, ts, c := newPrimary(t)
	first, second := clashBatches()
	for _, b := range []plusclient.BatchRequest{first, second} {
		if _, err := c.Batch(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	r, fm := newFollower(t, ts.URL)
	if err := r.Start(context.Background()); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	checkClashReplicated(t, pm, fm)
	if err := r.resync(context.Background()); err != nil {
		t.Fatalf("resync: %v", err)
	}
	checkClashReplicated(t, pm, fm)
}

// TestFollowerStreamsSurrogateNamedBeforeItsObject: a follower that
// bootstrapped before either write reads both batches' records from the
// change feed in one page and flushes them as one apply.
func TestFollowerStreamsSurrogateNamedBeforeItsObject(t *testing.T) {
	pm, ts, c := newPrimary(t)
	r, fm := newFollower(t, ts.URL, func(cfg *Config) { cfg.FlushEvery = 64 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	first, second := clashBatches()
	for _, b := range []plusclient.BatchRequest{first, second} {
		if _, err := c.Batch(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	waitForRev(t, r, pm.Revision())
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkClashReplicated(t, pm, fm)
	if got := r.Health().Resyncs; got != 0 {
		t.Errorf("resyncs = %d, want 0: the flush itself must apply", got)
	}
}

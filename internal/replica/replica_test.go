package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// newPrimary serves a fresh MemBackend over the full API surface and
// returns the backend, the server, and an SDK client for ingest.
func newPrimary(t *testing.T) (*plus.MemBackend, *httptest.Server, *plusclient.Client) {
	t.Helper()
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(m, lat))
	plusql.Attach(srv, plusql.NewEngine(m, lat))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return m, ts, plusclient.New(ts.URL, plusclient.WithViewer("Protected"))
}

// newFollower builds a replica over a fresh MemBackend following
// primary, with test-friendly pacing (fast flushes, no healthz polling).
func newFollower(t *testing.T, primary string, mutate ...func(*Config)) (*Replica, *plus.MemBackend) {
	t.Helper()
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	cfg := Config{
		Primary:      primary,
		Backend:      m,
		FlushEvery:   8,
		Wait:         100 * time.Millisecond,
		PollInterval: -1,
		Logf:         t.Logf,
	}
	for _, f := range mutate {
		f(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, m
}

// runFollower starts the apply loop and returns its cancel plus a done
// channel carrying Run's error.
func runFollower(t *testing.T, r *Replica) (context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	if err := r.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Run did not stop")
		}
	})
	return cancel, done
}

// waitCaughtUp blocks until the follower has applied everything the
// primary reports: lag 0 with a known primary revision.
func waitCaughtUp(t *testing.T, r *Replica) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := r.Health()
		if h.PrimaryRev > 0 && h.LagRevisions == 0 && h.State == string(StateFollowing) {
			return
		}
		if h.State == string(StateFailed) || time.Now().After(deadline) {
			t.Fatalf("follower never caught up (health %+v)", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForRev blocks until the follower has applied at least rev —
// unlike waitCaughtUp it cannot be fooled by calling it before the
// follower has observed a fresh primary write.
func waitForRev(t *testing.T, r *Replica, rev uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Health().AppliedRev < rev {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %+v waiting for rev %d", r.Health(), rev)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// objectWrites counts the stores of id in b's change feed: a blind
// re-apply of an object the store already held counts twice.
func objectWrites(t *testing.T, b plus.Backend, id string) int {
	t.Helper()
	changes, err := b.ChangesSince(0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range changes {
		if c.Kind == plus.ChangeObject && c.Object.ID == id {
			n++
		}
	}
	return n
}

// ingestChain writes a linear provenance chain of n objects.
func ingestChain(t *testing.T, c *plusclient.Client, prefix string, n int) {
	t.Helper()
	var b plusclient.BatchRequest
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		b.Objects = append(b.Objects, plus.Object{ID: id, Kind: plus.Data, Name: prefix})
		if i > 0 {
			b.Edges = append(b.Edges, plus.Edge{From: fmt.Sprintf("%s-%d", prefix, i-1), To: id, Label: "input-to"})
		}
	}
	if _, err := c.Batch(context.Background(), b); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapThenFollow(t *testing.T) {
	pm, ts, c := newPrimary(t)
	ingestChain(t, c, "pre", 20)

	r, fm := newFollower(t, ts.URL)
	_, _ = runFollower(t, r)

	// Bootstrap already delivered the pre-existing records.
	if got := fm.NumObjects(); got != 20 {
		t.Fatalf("bootstrapped %d objects, want 20", got)
	}
	if !samePairs(r.Lattice().Pairs(), privilege.TwoLevel().Pairs()) {
		t.Errorf("adopted lattice = %v", r.Lattice().Pairs())
	}

	// Live changes stream in.
	ingestChain(t, c, "live", 30)
	waitForRev(t, r, pm.Revision())
	if got, want := fm.NumObjects(), pm.NumObjects(); got != want {
		t.Errorf("objects = %d, want %d", got, want)
	}
	if got, want := fm.NumEdges(), pm.NumEdges(); got != want {
		t.Errorf("edges = %d, want %d", got, want)
	}

	h := r.Health()
	if h.Role != "follower" || h.State != string(StateFollowing) {
		t.Errorf("health = %+v", h)
	}
	if h.AppliedRev != pm.Revision() || h.LagRevisions != 0 {
		t.Errorf("applied %d vs primary %d (lag %d)", h.AppliedRev, pm.Revision(), h.LagRevisions)
	}
	if h.Applied == 0 || h.Batches == 0 {
		t.Errorf("apply counters empty: %+v", h)
	}
}

func TestRunStopsCleanly(t *testing.T) {
	_, ts, c := newPrimary(t)
	ingestChain(t, c, "a", 5)
	r, _ := newFollower(t, ts.URL)
	cancel, done := runFollower(t, r)
	waitCaughtUp(t, r)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v on cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after cancel")
	}
	if got := r.State(); got != StateStopped {
		t.Errorf("state after cancel = %s", got)
	}
	done <- nil // refill so the cleanup's drain finds a value
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Backend: plus.NewMemBackend(0)}); err == nil {
		t.Error("missing primary accepted")
	}
	if _, err := New(Config{Primary: "http://x"}); err == nil {
		t.Error("missing backend accepted")
	}
}

// A follower holding records the primary lacks must refuse with
// ErrDiverged instead of serving a history that never happened.
func TestBootstrapDetectsDivergence(t *testing.T) {
	_, ts, c := newPrimary(t)
	ingestChain(t, c, "p", 3)

	r, fm := newFollower(t, ts.URL)
	if _, err := fm.Apply(plus.Batch{Objects: []plus.Object{{ID: "ghost", Kind: plus.Data, Name: "local-only"}}}); err != nil {
		t.Fatal(err)
	}
	err := r.Start(context.Background())
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("Start = %v, want divergence", err)
	}
}

// The follower's read surface refuses writes with the structured 403 and
// reports replication state in healthz.
func TestFollowerServingSurface(t *testing.T) {
	_, ts, c := newPrimary(t)
	ingestChain(t, c, "n", 10)

	r, fm := newFollower(t, ts.URL)
	_, _ = runFollower(t, r)
	waitCaughtUp(t, r)

	lat := r.Lattice()
	fsrv := plus.NewServer(plus.NewEngine(fm, lat),
		plus.WithReadOnly(nil), plus.WithReplicaHealth(r.Health))
	plusql.Attach(fsrv, plusql.NewEngine(fm, lat))
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	fc := plusclient.New(fts.URL, plusclient.WithViewer("Protected"))
	ctx := context.Background()

	// Lineage and PLUSQL answer locally.
	res, err := fc.Lineage(ctx, plusclient.LineageRequest{Start: "n-9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 10 {
		t.Errorf("lineage nodes = %d, want 10", len(res.Nodes))
	}
	qr, err := fc.Query(ctx, `ancestor*(X, "n-9"), kind(X, data)`, plusclient.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) == 0 {
		t.Error("PLUSQL returned no rows on the follower")
	}

	// Writes refuse with the structured code.
	_, err = fc.Batch(ctx, plusclient.BatchRequest{Objects: []plus.Object{{ID: "w", Kind: plus.Data, Name: "w"}}})
	var apiErr *plusclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusForbidden || apiErr.Code != plus.CodeReadOnly {
		t.Fatalf("follower write error = %v", err)
	}

	// Healthz carries the replica block.
	h, err := fc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Replica == nil || h.Replica.Primary != ts.URL {
		t.Errorf("healthz replica = %+v", h.Replica)
	}
	_ = c
}

// Writes through a proxying follower land on the primary and come back
// around the feed.
func TestWriteProxyRoundTrip(t *testing.T) {
	pm, ts, _ := newPrimary(t)
	r, fm := newFollower(t, ts.URL)
	_, _ = runFollower(t, r)

	proxy, err := WriteProxy(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	fsrv := plus.NewServer(plus.NewEngine(fm, privilege.TwoLevel()), plus.WithReadOnly(proxy))
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	fc := plusclient.New(fts.URL, plusclient.WithViewer("Protected"))
	if _, err := fc.Batch(context.Background(), plusclient.BatchRequest{
		Objects: []plus.Object{{ID: "via-proxy", Kind: plus.Data, Name: "w"}},
	}); err != nil {
		t.Fatalf("proxied write: %v", err)
	}
	if _, err := pm.GetObject("via-proxy"); err != nil {
		t.Fatalf("primary never saw the proxied write: %v", err)
	}
	waitForRev(t, r, pm.Revision())
	if _, err := fm.GetObject("via-proxy"); err != nil {
		t.Fatalf("follower never replicated its own proxied write: %v", err)
	}
}

// A proxying follower whose primary is down answers 502 unavailable, not
// a hang or a panic.
func TestWriteProxyPrimaryDown(t *testing.T) {
	proxy, err := WriteProxy("http://127.0.0.1:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	fsrv := plus.NewServer(plus.NewEngine(plus.NewMemBackend(0), privilege.TwoLevel()), plus.WithReadOnly(proxy))
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	resp, err := http.Post(fts.URL+"/v2/batch", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

func TestMetricsExported(t *testing.T) {
	_, ts, c := newPrimary(t)
	ingestChain(t, c, "m", 5)
	r, _ := newFollower(t, ts.URL)
	_, _ = runFollower(t, r)
	waitCaughtUp(t, r)

	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"plus_replica_applied_revision",
		"plus_replica_primary_revision",
		"plus_replica_lag_revisions",
		"plus_replica_lag_seconds",
		"plus_replica_apply_per_sec",
		"plus_replica_applied_total",
		"plus_replica_apply_batches_total",
		"plus_replica_resyncs_total",
		"plus_replica_reconnects_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metric %s missing", name)
		}
	}
	if !strings.Contains(out, "plus_replica_lag_revisions 0") {
		t.Errorf("lag gauge not zero after catch-up:\n%s", out)
	}
}

func TestDefaultStatePath(t *testing.T) {
	if got := DefaultStatePath("/var/lib/plus/plus.db"); got != "/var/lib/plus/plus.db.replica" {
		t.Errorf("DefaultStatePath = %q", got)
	}
}

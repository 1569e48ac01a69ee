package plusclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
)

// newTestServer serves a fresh MemBackend over the full API (PLUSQL
// included) and returns the SDK client pointed at it.
func newTestServer(t *testing.T, opts ...Option) (*Client, *plus.MemBackend, *httptest.Server) {
	t.Helper()
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(m, lat))
	plusql.Attach(srv, plusql.NewEngine(m, lat))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return New(ts.URL, opts...), m, ts
}

func fixtureBatch() BatchRequest {
	return BatchRequest{
		Objects: []plus.Object{
			{ID: "src", Kind: plus.Data, Name: "raw feed"},
			{ID: "proc", Kind: plus.Invocation, Name: "secret analytic", Lowest: "Protected", Protect: "surrogate"},
			{ID: "out", Kind: plus.Data, Name: "derived table"},
			{ID: "report", Kind: plus.Data, Name: "final report"},
		},
		Edges: []plus.Edge{
			{From: "src", To: "proc", Label: "input-to"},
			{From: "proc", To: "out", Label: "generated"},
			{From: "out", To: "report", Label: "input-to"},
		},
		Surrogates: []plus.SurrogateSpec{
			{ForID: "proc", ID: "proc'", Name: "an analytic", InfoScore: 0.4},
		},
	}
}

func TestSDKBatchLineageQuery(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newTestServer(t, WithViewer("Protected"))

	br, err := c.Batch(ctx, fixtureBatch())
	if err != nil {
		t.Fatal(err)
	}
	if br.Revision != 8 || br.Cursor == "" {
		t.Fatalf("batch response = %+v", br)
	}

	res, err := c.Lineage(ctx, LineageRequest{Start: "report"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewer != "Protected" {
		t.Errorf("lineage viewer = %q", res.Viewer)
	}
	seenProc := false
	for _, n := range res.Nodes {
		if n.ID == "proc" {
			seenProc = true
		}
	}
	if !seenProc {
		t.Error("protected principal did not see the original node")
	}

	qr, err := c.Query(ctx, `ancestor*(X, "report"), kind(X, invocation)`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0].ID != "proc" {
		t.Errorf("query rows = %+v", qr.Rows)
	}

	o, err := c.GetObject(ctx, "proc")
	if err != nil || o.Name != "secret analytic" {
		t.Errorf("GetObject = %+v, %v", o, err)
	}

	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Errorf("healthz = %+v, %v", h, err)
	}
}

// reflectLineage is plus.LineageResponse without its methods, so
// encoding/json decodes it by reflection.
type reflectLineage plus.LineageResponse

// TestSDKLineageMatchesServedBody: the SDK's answer to a name-seeded
// lineage is the body the server's cache holds for the same request,
// decoded by encoding/json, the startName echo and the timing block
// included; a request carrying both start and startName stays a 400.
func TestSDKLineageMatchesServedBody(t *testing.T) {
	ctx := context.Background()
	m := plus.NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	ce := plus.NewCachedEngine(plus.NewEngine(m, privilege.TwoLevel()))
	ts := httptest.NewServer(plus.NewCachedServer(ce))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithViewer("Public"))
	if _, err := c.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}

	got, err := c.Lineage(ctx, LineageRequest{StartName: "derived table", Direction: "ancestors"})
	if err != nil {
		t.Fatal(err)
	}
	if got.StartName != "derived table" || got.Start != "" || len(got.Nodes) != 3 {
		t.Fatalf("name-seeded answer: start %q, startName %q, %d nodes", got.Start, got.StartName, len(got.Nodes))
	}
	body, err := ce.LineageBody(ctx, plus.Request{StartName: "derived table", Direction: graph.Backward, Viewer: "Public"})
	if err != nil {
		t.Fatal(err)
	}
	if st := ce.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats %+v: the SDK's request and this one must share one entry", st)
	}
	var want reflectLineage
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reflectLineage(*got), want) {
		t.Errorf("SDK answer\n%#v\nserved body decoded by encoding/json\n%#v", *got, want)
	}

	_, err = c.Lineage(ctx, LineageRequest{Start: "out", StartName: "derived table"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("start and startName together: err %v, want a 400", err)
	}
}

func TestSDKPrincipalErrors(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newTestServer(t, WithViewer("Bogus"))
	if _, err := c.Batch(ctx, fixtureBatch()); err == nil {
		t.Fatal("unknown viewer accepted")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != plus.CodeUnknownViewer || apiErr.Status != http.StatusBadRequest {
			t.Errorf("error = %v", err)
		}
	}

	// Public principal cannot fetch the protected record.
	pub, _, _ := newTestServer(t)
	if _, err := pub.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}
	_, err := pub.GetObject(ctx, "proc")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusForbidden {
		t.Errorf("protected fetch as Public = %v", err)
	}
}

func TestSDKSession(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newTestServer(t)
	if _, err := c.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}
	sess, err := c.Mint(ctx, SessionRequest{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	token := sess.Token
	if token == "" {
		t.Fatal("empty session token")
	}
	res, err := c.Lineage(ctx, LineageRequest{Start: "report"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewer != "Protected" {
		t.Errorf("session principal = %q", res.Viewer)
	}
	// A second client reusing the token gets the same principal.
	c2 := New(c.base, WithToken(token), WithHTTPClient(c.http))
	res, err = c2.Lineage(ctx, LineageRequest{Start: "report"})
	if err != nil || res.Viewer != "Protected" {
		t.Errorf("shared token lineage = %+v, %v", res, err)
	}
}

func TestSDKChangesAndResume(t *testing.T) {
	ctx := context.Background()
	c, m, _ := newTestServer(t)
	if _, err := c.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}

	evs, cur, err := c.Changes(ctx, "", ChangesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	for _, ev := range evs {
		if ev.Type == EventChange {
			changes++
		}
	}
	if changes != 8 {
		t.Fatalf("drained %d changes, want 8", changes)
	}

	if err := m.PutObject(plus.Object{ID: "extra", Kind: plus.Data}); err != nil {
		t.Fatal(err)
	}
	evs, _, err = c.Changes(ctx, cur, ChangesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range evs {
		if ev.Type == EventChange {
			got = append(got, ev.Object.ID)
		}
	}
	if len(got) != 1 || got[0] != "extra" {
		t.Errorf("resumed changes = %v", got)
	}
}

// TestSDKFollowExactlyOnceAcrossRestart is the acceptance scenario: batch
// in, follow with no cursor, disconnect, restart the LogBackend-backed
// server, resume from the held cursor — every change delivered exactly
// once, none lost, none repeated.
func TestSDKFollowExactlyOnceAcrossRestart(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "plus.log")

	// The outer test server survives "restarts": the inner plus server is
	// swapped when the backend is reopened, like a daemon coming back on
	// the same address.
	var inner atomic.Pointer[plus.Server]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()

	openServer := func() *plus.LogBackend {
		b, err := plus.Open(path, plus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		inner.Store(plus.NewServer(plus.NewEngine(b, privilege.TwoLevel())))
		return b
	}

	b := openServer()
	c := New(ts.URL)
	if _, err := c.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}

	// Phase 1: follow from the beginning, stop after 5 changes.
	type delivery struct {
		rev    uint64
		cursor string
	}
	var seen []delivery
	err := c.Follow(ctx, "", FollowOptions{Wait: time.Millisecond}, func(ev Event) error {
		if ev.Type != EventChange {
			return nil
		}
		seen = append(seen, delivery{ev.Rev, ev.Cursor})
		if len(seen) == 5 {
			return ErrStopFollow
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("phase 1 delivered %d changes", len(seen))
	}

	// Restart: close the backend, reopen the log, swap the server in.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = openServer()
	defer b.Close()

	// More writes after the restart.
	if err := b.PutObject(plus.Object{ID: "post", Kind: plus.Data, Name: "post-restart"}); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume from the held cursor; expect revisions 6..9 exactly.
	var resumed []uint64
	err = c.Follow(ctx, seen[4].cursor, FollowOptions{Wait: time.Millisecond}, func(ev Event) error {
		switch ev.Type {
		case EventResync:
			t.Fatal("durable cursor should not need a resync")
		case EventChange:
			resumed = append(resumed, ev.Rev)
			if ev.Rev == 9 {
				return ErrStopFollow
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{6, 7, 8, 9}
	if len(resumed) != len(want) {
		t.Fatalf("resumed revisions = %v, want %v", resumed, want)
	}
	for i := range want {
		if resumed[i] != want[i] {
			t.Fatalf("gap or duplicate: resumed %v, want %v", resumed, want)
		}
	}
}

// TestSDKFollowAutoResync drops the consumer past the MemBackend change
// horizon and requires Follow to rebase through one snapshot resync, then
// keep streaming.
func TestSDKFollowAutoResync(t *testing.T) {
	ctx := context.Background()
	c, m, _ := newTestServer(t)
	if _, err := c.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}
	// Age the beginning of history out of the retained window.
	m.SetChangeHorizon(1)

	var resync *Event
	var after []uint64
	err := c.Follow(ctx, "", FollowOptions{Wait: time.Millisecond}, func(ev Event) error {
		switch ev.Type {
		case EventResync:
			if resync != nil {
				t.Fatal("resynced twice")
			}
			e := ev
			resync = &e
			// Write one more record so the stream has something after the
			// rebase.
			if err := m.PutObject(plus.Object{ID: "fresh", Kind: plus.Data}); err != nil {
				t.Fatal(err)
			}
		case EventChange:
			after = append(after, ev.Rev)
			return ErrStopFollow
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if resync == nil {
		t.Fatal("no resync event")
	}
	if resync.Snapshot == nil || len(resync.Snapshot.Objects) != 4 {
		t.Fatalf("resync snapshot = %+v", resync.Snapshot)
	}
	if len(after) != 1 || after[0] != 9 {
		t.Errorf("post-resync changes = %v, want [9]", after)
	}

	// DisableResync surfaces the typed error instead.
	err = c.Follow(ctx, "", FollowOptions{Wait: time.Millisecond, DisableResync: true}, func(ev Event) error { return nil })
	if !errors.Is(err, ErrTooFarBehind) {
		t.Errorf("DisableResync error = %v, want ErrTooFarBehind", err)
	}
}

func TestSDKRestoreSnapshot(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newTestServer(t)
	if _, err := c.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if replica.NumObjects() != 4 || replica.NumEdges() != 3 {
		t.Errorf("replica = %d objects %d edges", replica.NumObjects(), replica.NumEdges())
	}
	if o, err := replica.GetObject("proc"); err != nil || o.Lowest != "Protected" {
		t.Errorf("replica object = %+v, %v", o, err)
	}
	if len(snap.Lattice) == 0 {
		t.Error("snapshot lattice missing")
	}
	if _, err := privilege.FromPairs(snap.Lattice); err != nil {
		t.Errorf("snapshot lattice does not parse: %v", err)
	}
}

func TestSDKContextCancellation(t *testing.T) {
	c, _, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Batch(ctx, fixtureBatch()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch = %v", err)
	}
	if err := c.Follow(ctx, "", FollowOptions{}, func(Event) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follow = %v", err)
	}
}

// TestSDKFollowSurvivesTransportBlips kills the connection mid-stream and
// expects Follow to reconnect from the held cursor without duplicating
// deliveries.
func TestSDKFollowSurvivesTransportBlips(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m := plus.NewMemBackend(0)
	defer m.Close()
	srv := plus.NewServer(plus.NewEngine(m, privilege.TwoLevel()))

	// Fail every other request at the transport level.
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 1 {
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := New(ts.URL)
	if err := m.PutObject(plus.Object{ID: "a", Kind: plus.Data}); err != nil {
		t.Fatal(err)
	}
	if err := m.PutObject(plus.Object{ID: "b", Kind: plus.Data}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var revs []uint64
	err := c.Follow(ctx, "", FollowOptions{Wait: time.Millisecond}, func(ev Event) error {
		if ev.Type != EventChange {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		revs = append(revs, ev.Rev)
		if len(revs) == 2 {
			return ErrStopFollow
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(revs) != 2 || revs[0] != 1 || revs[1] != 2 {
		t.Errorf("delivered revisions = %v, want [1 2]", revs)
	}
}

// TestSDKHealthzUnavailable: a degraded server's 503 probe answer comes
// back as its decoded payload together with the error, so callers see
// what the probe reported, not only that it failed.
func TestSDKHealthzUnavailable(t *testing.T) {
	ctx := context.Background()
	c, m, _ := newTestServer(t)
	if _, err := c.Batch(ctx, fixtureBatch()); err != nil {
		t.Fatal(err)
	}
	m.Close()
	h, err := c.Healthz(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("healthz on a closed backend: err = %v, want a 503 *APIError", err)
	}
	if h.Status != "unavailable" || h.Revision != 8 {
		t.Errorf("healthz payload = %+v, want unavailable at revision 8", h)
	}

	// A non-2xx answer without a healthz body yields only the error.
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	h, err = New(ts.URL).Healthz(ctx)
	if err == nil || h.Status != "" {
		t.Errorf("healthz against a bare 404 = %+v, %v", h, err)
	}
}

// TestFollowStopsOnCorruptStream serves garbage NDJSON and expects Follow
// to fail fast instead of reconnecting into the same broken bytes forever.
func TestFollowStopsOnCorruptStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte("{not json}\n"))
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := New(ts.URL).Follow(ctx, "", FollowOptions{}, func(Event) error { return nil })
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("corrupt stream: err = %v, want a fast permanent failure", err)
	}
	if !strings.Contains(err.Error(), "bad change event") {
		t.Errorf("err = %v", err)
	}
}

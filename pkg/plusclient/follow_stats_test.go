package plusclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
)

// TestFollowCountsReconnects drops the first two /v2/changes attempts at
// the HTTP layer and checks Follow retries through them, counting each
// backoff on the shared stats.
func TestFollowCountsReconnects(t *testing.T) {
	m := plus.NewMemBackend(0)
	defer m.Close()
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(m, lat))
	plusql.Attach(srv, plusql.NewEngine(m, lat))

	var failures atomic.Int64
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/changes" && failures.Add(1) <= 2 {
			// Slam the connection: a transport-level failure, not an API
			// answer.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		srv.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()

	c := New(ts.URL)
	if _, err := m.Apply(plus.Batch{Objects: []plus.Object{{ID: "a", Kind: plus.Data, Name: "x"}}}); err != nil {
		t.Fatal(err)
	}

	var stats FollowStats
	var changes atomic.Int64
	err := c.Follow(context.Background(), "", FollowOptions{
		Wait:              50 * time.Millisecond,
		MaxReconnectDelay: 20 * time.Millisecond,
		Stats:             &stats,
	}, func(ev Event) error {
		if ev.Type == EventChange {
			changes.Add(1)
		}
		if ev.Type == EventSync {
			return ErrStopFollow
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Reconnects(); got != 2 {
		t.Errorf("reconnects = %d, want 2", got)
	}
	if stats.Resyncs() != 0 {
		t.Errorf("resyncs = %d, want 0", stats.Resyncs())
	}
	if changes.Load() != 1 {
		t.Errorf("changes = %d, want 1", changes.Load())
	}
}

// TestFollowCountsResyncs shrinks the change horizon so a stale cursor
// 410s, and checks Follow resyncs exactly once and counts it.
func TestFollowCountsResyncs(t *testing.T) {
	m := plus.NewMemBackend(0)
	defer m.Close()
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(m, lat))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := New(ts.URL)

	// Write, capture the early cursor, then push it past the horizon.
	if _, err := m.Apply(plus.Batch{Objects: []plus.Object{{ID: "o0", Kind: plus.Data, Name: "x"}}}); err != nil {
		t.Fatal(err)
	}
	evs, early, err := c.Changes(context.Background(), "", ChangesOptions{})
	if err != nil || len(evs) == 0 {
		t.Fatalf("changes: %v (%d events)", err, len(evs))
	}
	m.SetChangeHorizon(4)
	for i := 0; i < 64; i++ {
		if _, err := m.Apply(plus.Batch{Objects: []plus.Object{{ID: "o" + string(rune('A'+i%26)) + string(rune('a'+i/26)), Kind: plus.Data, Name: "x"}}}); err != nil {
			t.Fatal(err)
		}
	}

	var stats FollowStats
	sawResync := false
	err = c.Follow(context.Background(), early, FollowOptions{
		Wait:              50 * time.Millisecond,
		MaxReconnectDelay: 20 * time.Millisecond,
		Stats:             &stats,
	}, func(ev Event) error {
		switch ev.Type {
		case EventResync:
			sawResync = true
			if ev.Snapshot == nil || len(ev.Snapshot.Objects) != 65 {
				t.Errorf("resync snapshot = %+v", ev.Snapshot)
			}
		case EventSync:
			return ErrStopFollow
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawResync {
		t.Error("no EventResync delivered")
	}
	if got := stats.Resyncs(); got != 1 {
		t.Errorf("resyncs = %d, want 1", got)
	}
}

// backoffSleep must jitter within [delay/2, delay], double up to the cap,
// and bail out promptly on context cancellation.
func TestBackoffSleepBoundsAndCap(t *testing.T) {
	ctx := context.Background()
	delay := 20 * time.Millisecond
	cap := 50 * time.Millisecond
	start := time.Now()
	next, ok := backoffSleep(ctx, delay, cap)
	elapsed := time.Since(start)
	if !ok {
		t.Fatal("backoffSleep reported cancellation")
	}
	if elapsed < delay/2-time.Millisecond || elapsed > delay+25*time.Millisecond {
		t.Errorf("slept %v, want within [%v, %v]", elapsed, delay/2, delay)
	}
	if next != 40*time.Millisecond {
		t.Errorf("next delay = %v, want 40ms", next)
	}
	if next, _ = backoffSleep(ctx, next, cap); next != cap {
		t.Errorf("capped delay = %v, want %v", next, cap)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, ok := backoffSleep(cancelled, time.Hour, time.Hour); ok {
		t.Error("cancelled context did not stop the sleep")
	}
}

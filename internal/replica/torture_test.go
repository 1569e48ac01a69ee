package replica

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// TestTortureConvergence hammers the primary with randomized concurrent
// ingest — including duplicate objects, duplicate edges and overwrites,
// the cases the idempotent apply filter exists for — while a follower
// replicates live, then quiesces and proves the follower converged to
// the primary: record-level parity, lineage parity, PLUSQL parity and
// secondary-index parity. Run it with -race; the apply loop, the lag
// poller and the serving surface all touch shared state.
func TestTortureConvergence(t *testing.T) {
	pm, ts, _ := newPrimary(t)
	r, fm := newFollower(t, ts.URL, func(cfg *Config) {
		cfg.FlushEvery = 16
		cfg.PollInterval = 20 * time.Millisecond
	})
	_, _ = runFollower(t, r)

	const (
		writers          = 3
		batchesPerWriter = 40
	)
	// Surrogate registrations are once-only per ID: the primary's query
	// engine refuses duplicate registrations, so concurrent writers must
	// not repeat them (the follower's idempotent filter would absorb the
	// duplicates anyway).
	var surrogatesWritten sync.Map
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 42))
			c := plusclient.New(ts.URL, plusclient.WithViewer("Protected"))
			for i := 0; i < batchesPerWriter; i++ {
				var b plusclient.BatchRequest
				for j := 0; j < 1+rng.Intn(6); j++ {
					// Colliding ID space across writers: overwrites and
					// byte-identical re-puts both occur.
					id := fmt.Sprintf("obj-%d", rng.Intn(200))
					o := plus.Object{
						ID: id, Kind: plus.Data,
						Name:     fmt.Sprintf("name-%d", rng.Intn(20)),
						Features: map[string]string{"owner": fmt.Sprintf("o%d", rng.Intn(5))},
					}
					if rng.Intn(10) == 0 {
						// Protected objects live in their own ID space so a
						// later overwrite never strips the Lowest their
						// surrogates depend on.
						o.ID = fmt.Sprintf("sec-%d", rng.Intn(40))
						o.Kind = plus.Invocation
						o.Lowest = "Protected"
						o.Protect = "surrogate"
					}
					b.Objects = append(b.Objects, o)
					if rng.Intn(2) == 0 {
						// Edges between random existing-ish IDs; duplicates
						// (same from,to) are rejected by the primary and must
						// not wedge the follower either.
						b.Edges = append(b.Edges, plus.Edge{
							From:  o.ID,
							To:    fmt.Sprintf("obj-%d", 200+rng.Intn(50)),
							Label: "input-to",
						})
					}
					if o.Protect == "surrogate" && rng.Intn(2) == 0 {
						if _, dup := surrogatesWritten.LoadOrStore(o.ID, true); !dup {
							b.Surrogates = append(b.Surrogates, plus.SurrogateSpec{
								ForID: o.ID, ID: o.ID + "'", Name: "redacted", InfoScore: 0.3,
							})
						}
					}
				}
				// Duplicate edges within one batch 400 the whole batch;
				// ingest records one at a time instead so partial overlap
				// with earlier writers is tolerated.
				ctx := context.Background()
				for _, o := range b.Objects {
					if err := c.PutObject(ctx, o); err != nil {
						t.Error(err)
					}
				}
				for _, e := range b.Edges {
					_ = c.PutEdge(ctx, e) // duplicate (from,to) rejections are expected
				}
				for _, sp := range b.Surrogates {
					if err := c.PutSurrogate(ctx, sp); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	waitForRev(t, r, pm.Revision())
	assertParity(t, pm, fm, r)
}

// assertParity proves follower fm converged to primary pm across every
// read surface a consumer can hit.
func assertParity(t *testing.T, pm, fm plus.Backend, r *Replica) {
	t.Helper()

	// Record-level parity.
	if pm.NumObjects() != fm.NumObjects() || pm.NumEdges() != fm.NumEdges() {
		t.Fatalf("counts: primary %d/%d vs follower %d/%d",
			pm.NumObjects(), pm.NumEdges(), fm.NumObjects(), fm.NumEdges())
	}
	psnap, err := pm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fsnap, err := fm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ids := func(sn *plus.Snapshot) []string {
		var out []string
		for _, o := range sn.Objects() {
			out = append(out, o.ID)
		}
		sort.Strings(out)
		return out
	}
	pids, fids := ids(psnap), ids(fsnap)
	if !reflect.DeepEqual(pids, fids) {
		t.Fatalf("object ids: primary %d, follower %d", len(pids), len(fids))
	}
	for _, id := range pids {
		po, err1 := pm.GetObject(id)
		fo, err2 := fm.GetObject(id)
		if err1 != nil || err2 != nil {
			t.Fatalf("GetObject(%s): %v / %v", id, err1, err2)
		}
		if !objectsEqual(po, fo) {
			t.Fatalf("object %s differs: %+v vs %+v", id, po, fo)
		}
		if pe, fe := pm.EdgesFrom(id), fm.EdgesFrom(id); len(pe) != len(fe) {
			t.Fatalf("edges from %s: %d vs %d", id, len(pe), len(fe))
		}
		if ps, fs := pm.SurrogatesOf(id), fm.SurrogatesOf(id); len(ps) != len(fs) {
			t.Fatalf("surrogates of %s: %d vs %d", id, len(ps), len(fs))
		}
	}

	// Name-index parity on a sample of names.
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("name-%d", i)
		pn, fn := psnap.FindByName(name), fsnap.FindByName(name)
		sort.Strings(pn)
		sort.Strings(fn)
		if !reflect.DeepEqual(pn, fn) {
			t.Fatalf("name index %q: %v vs %v", name, pn, fn)
		}
	}

	// Serving-surface parity: lineage and PLUSQL answers must match over
	// HTTP, follower read-only.
	lat := r.Lattice()
	psrv := httptest.NewServer(newFullServer(pm, lat))
	defer psrv.Close()
	fsrv := httptest.NewServer(newFullServer(fm, lat, plus.WithReadOnly(nil), plus.WithReplicaHealth(r.Health)))
	defer fsrv.Close()
	pc := plusclient.New(psrv.URL, plusclient.WithViewer("Protected"))
	fc := plusclient.New(fsrv.URL, plusclient.WithViewer("Protected"))
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		start := fmt.Sprintf("obj-%d", 200+i)
		if _, err := pm.GetObject(start); err != nil {
			continue
		}
		pl, err1 := pc.Lineage(ctx, plusclient.LineageRequest{Start: start})
		fl, err2 := fc.Lineage(ctx, plusclient.LineageRequest{Start: start})
		if err1 != nil || err2 != nil {
			t.Fatalf("lineage(%s): %v / %v", start, err1, err2)
		}
		if !reflect.DeepEqual(lineageIDs(pl), lineageIDs(fl)) {
			t.Fatalf("lineage(%s) differs: %v vs %v", start, lineageIDs(pl), lineageIDs(fl))
		}
	}

	for _, src := range []string{
		`kind(X, data), attr(X, "owner", "o1")`,
		`name(X, "name-3")`,
		`ancestor(X, "obj-205")`,
	} {
		pq, err1 := pc.Query(ctx, src, plusclient.QueryOptions{})
		fq, err2 := fc.Query(ctx, src, plusclient.QueryOptions{})
		if err1 != nil || err2 != nil {
			t.Fatalf("query %q: %v / %v", src, err1, err2)
		}
		if !reflect.DeepEqual(queryIDs(pq), queryIDs(fq)) {
			t.Fatalf("query %q differs:\n%v\nvs\n%v", src, queryIDs(pq), queryIDs(fq))
		}
	}
}

func newFullServer(b plus.Backend, lat *privilege.Lattice, opts ...plus.ServerOption) *plus.Server {
	srv := plus.NewServer(plus.NewEngine(b, lat), opts...)
	plusql.Attach(srv, plusql.NewEngine(b, lat))
	return srv
}

func lineageIDs(r *plus.LineageResponse) []string {
	ids := make([]string, 0, len(r.Nodes))
	for _, n := range r.Nodes {
		ids = append(ids, n.ID)
	}
	sort.Strings(ids)
	return ids
}

func queryIDs(q *plusql.QueryResponse) []string {
	var ids []string
	for _, row := range q.Rows {
		for _, b := range row {
			ids = append(ids, b.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

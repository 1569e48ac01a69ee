package plus_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/internal/workload"
)

// The store shapes each record's graph-form feature map once, at ingest,
// and every reader shares it: lineage misses put it in G and G', the
// surrogate registry in the account's surrogate nodes, PLUSQL views in
// their spec mirror and postings. These tests hold every such reader to
// reading only: no stored map may change, or be swapped for another,
// while they run.

// sharedMapsBackend is a small graph shaped like cmd/plusbench's (every
// object with user features, one in ten protected with a surrogate) plus
// records whose user features name their own name and kind, and a
// surrogate with features.
func sharedMapsBackend(t *testing.T) *plus.MemBackend {
	t.Helper()
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	err := workload.GenerateLarge(workload.LargeConfig{Nodes: 400, EdgesPerNode: 3, ProtectEvery: 10, BatchSize: 128, Seed: 3},
		func(batch plus.Batch) error { _, err := b.Apply(batch); return err })
	if err != nil {
		t.Fatal(err)
	}
	last := workload.LargeNodeID(399)
	_, err = b.Apply(plus.Batch{
		Objects: []plus.Object{
			{ID: "own", Kind: plus.Data, Name: "own", Features: map[string]string{"name": "own", "kind": "data"}},
			{ID: "renamed", Kind: plus.Invocation, Name: "A", Features: map[string]string{"name": "B"},
				Lowest: "Protected", Protect: "surrogate"},
		},
		Edges: []plus.Edge{{From: last, To: "own"}, {From: "own", To: "renamed"}},
		Surrogates: []plus.SurrogateSpec{{ForID: "renamed", ID: "renamed~", Name: "anon",
			Features: map[string]string{"name": "anon", "tier": "1"}, InfoScore: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fingerprint records each stored map's identity and contents.
func fingerprint(stored map[string]map[string]string) map[string]string {
	fp := make(map[string]string, len(stored))
	for key, m := range stored {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%x", reflect.ValueOf(m).Pointer())
		for _, k := range slices.Sorted(maps.Keys(m)) {
			fmt.Fprintf(&sb, " %q=%q", k, m[k])
		}
		fp[key] = sb.String()
	}
	return fp
}

// sharedMapReaders returns the readers of one snapshot's records: one
// served lineage miss per viewer and mode (each on a fresh cache, so it
// computes, and hands G and G' back through graph.Release), and one
// PLUSQL query per viewer that builds its view; advance writes a record
// and asks the same queries again, which advances the views.
func sharedMapReaders(b *plus.MemBackend) (readers []func() error, advance func() error, ql *plusql.Engine) {
	lat := privilege.TwoLevel()
	en := plus.NewEngine(b, lat)
	ql = plusql.NewEngine(b, lat)
	for _, viewer := range []privilege.Predicate{privilege.Public, "Protected"} {
		for _, mode := range []plus.Mode{plus.ModeSurrogate, plus.ModeHide} {
			req := plus.Request{Start: "renamed", Direction: graph.Backward, Depth: 4, Viewer: viewer, Mode: mode}
			readers = append(readers, func() error {
				body, err := plus.NewCachedEngine(en).LineageBody(context.Background(), req)
				if err == nil && !bytes.Contains(body, []byte(`"own"`)) {
					err = fmt.Errorf("answer to %+v lacks node own: %.200s", req, body)
				}
				return err
			})
		}
		opts := plusql.Options{Viewer: viewer}
		readers = append(readers, func() error {
			_, err := ql.Query(`node(X), attr(X, "owner", "u0001")`, opts)
			return err
		})
	}
	advance = func() error {
		if err := b.PutObject(plus.Object{ID: "late", Kind: plus.Data, Name: "late",
			Features: map[string]string{"owner": "u0001"}}); err != nil {
			return err
		}
		if err := b.PutEdge(plus.Edge{From: "own", To: "late"}); err != nil {
			return err
		}
		for _, viewer := range []privilege.Predicate{privilege.Public, "Protected"} {
			if _, err := ql.Query(`node(X), attr(X, "owner", "u0001")`, plusql.Options{Viewer: viewer}); err != nil {
				return err
			}
		}
		return nil
	}
	return readers, advance, ql
}

// TestStoredFeatureMapsShared runs lineage misses (both viewers, both
// modes), PLUSQL view builds and a view advance over one snapshot and
// checks that every stored feature map is the same map with the same
// contents afterwards, and that a miss's graph really shares them.
func TestStoredFeatureMapsShared(t *testing.T) {
	b := sharedMapsBackend(t)
	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stored := plus.StoredFeatureMaps(sn)
	before := fingerprint(stored)

	res, err := plus.NewEngine(b, privilege.TwoLevel()).Lineage(plus.Request{Start: "own", Direction: graph.Backward,
		Depth: 2, Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	n, ok := res.Spec.Graph.NodeByID("own")
	if !ok || reflect.ValueOf(n.Features).Pointer() != reflect.ValueOf(stored["object own"]).Pointer() {
		t.Fatalf("the miss's node %q holds %v, not the stored map %v", "own", n.Features, stored["object own"])
	}

	readers, advance, ql := sharedMapReaders(b)
	for _, read := range readers {
		if err := read(); err != nil {
			t.Fatal(err)
		}
	}
	if err := advance(); err != nil {
		t.Fatal(err)
	}
	if st := ql.CacheStats(); st.FullBuilds != 2 || st.Advanced != 2 {
		t.Fatalf("view stats %+v: want both views built once and advanced once", st)
	}
	if after := fingerprint(plus.StoredFeatureMaps(sn)); !maps.Equal(before, after) {
		for key, fp := range before {
			if after[key] != fp {
				t.Errorf("stored map of %s changed: %s, then %s", key, fp, after[key])
			}
		}
	}
}

// TestStoredFeatureMapsSharedConcurrent runs the same readers and the
// advance at once, twice over: under -race a reader that writes into a
// shared map is a reported race, and without it the fingerprints still
// must not move.
func TestStoredFeatureMapsSharedConcurrent(t *testing.T) {
	b := sharedMapsBackend(t)
	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := fingerprint(plus.StoredFeatureMaps(sn))
	readers, advance, _ := sharedMapReaders(b)
	var wg sync.WaitGroup
	for _, read := range append(append(readers, readers...), advance) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := read(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if after := fingerprint(plus.StoredFeatureMaps(sn)); !maps.Equal(before, after) {
		t.Errorf("%d stored maps before the readers, %d after, or contents differ", len(before), len(after))
	}
}

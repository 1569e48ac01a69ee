package replica

import (
	"bytes"
	"context"
	"maps"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// wireRecords are one record per shape the store's graph-form feature
// map must give back exactly as posted (internal/plus/shape.go): no
// features, user features, user "name" / "kind" features equal to the
// record's own Name / Kind and different from them, and surrogates with
// and without features, including a user "name" equal to the
// surrogate's Name.
func wireRecords(p string) ([]plus.Object, []plus.SurrogateSpec) {
	f := func(kv ...string) map[string]string {
		m := map[string]string{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}
	objects := []plus.Object{
		{ID: p + "plain", Kind: plus.Data, Name: "plain"},
		{ID: p + "feats", Kind: plus.Data, Name: "feats", Features: f("owner", "alice", "stage", "s1")},
		{ID: p + "sameName", Kind: plus.Data, Name: "same", Features: f("name", "same")},
		{ID: p + "sameKind", Kind: plus.Invocation, Name: "k", Features: f("kind", "invocation", "x", "1")},
		{ID: p + "sameBoth", Kind: plus.Data, Name: "both", Features: f("name", "both", "kind", "data")},
		{ID: p + "otherName", Kind: plus.Data, Name: "A", Features: f("name", "B")},
		{ID: p + "otherKind", Kind: plus.Invocation, Name: "ok", Features: f("kind", "other")},
		{ID: p + "mixed", Kind: plus.Data, Name: "m", Features: f("name", "m", "kind", "elsewhere")},
		{ID: p + "unnamed", Kind: plus.Data, Features: f("name", "")},
		{ID: p + "guarded", Kind: plus.Data, Name: "g", Features: f("owner", "bob"), Lowest: "Protected", Protect: "surrogate"},
	}
	surrogates := []plus.SurrogateSpec{
		{ForID: p + "guarded", ID: p + "guarded~", Name: "anon", InfoScore: 0.2},
		{ForID: p + "guarded", ID: p + "guarded~f", Name: "anon", Features: f("tier", "1"), InfoScore: 0.3},
		{ForID: p + "guarded", ID: p + "guarded~n", Name: "anon", Features: f("name", "anon"), InfoScore: 0.4},
		{ForID: p + "sameName", ID: p + "sameName~n", Name: "s", Features: f("name", "s", "tier", "2"), InfoScore: 0.5},
		{ForID: p + "sameName", ID: p + "sameName~o", Name: "s", Features: f("name", "t"), InfoScore: 0.5},
	}
	return objects, surrogates
}

func sameObject(a, b plus.Object) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.Name == b.Name && a.Lowest == b.Lowest &&
		a.Protect == b.Protect && maps.Equal(a.Features, b.Features)
}

func sameSurrogate(a, b plus.SurrogateSpec) bool {
	return a.ForID == b.ForID && a.ID == b.ID && a.Name == b.Name && a.Lowest == b.Lowest &&
		a.InfoScore == b.InfoScore && maps.Equal(a.Features, b.Features)
}

// checkWire holds one read path to the posted records: get reads an
// object (ok false if absent), surrogatesOf an object's surrogates.
func checkWire(t *testing.T, path string, objects []plus.Object, surrogates []plus.SurrogateSpec,
	get func(id string) (plus.Object, bool), surrogatesOf func(id string) []plus.SurrogateSpec) {
	t.Helper()
	for _, want := range objects {
		if got, ok := get(want.ID); !ok || !sameObject(got, want) {
			t.Errorf("%s: object %s reads back as %+v (found %v), posted %+v", path, want.ID, got, ok, want)
		}
		var posted []plus.SurrogateSpec
		for _, sp := range surrogates {
			if sp.ForID == want.ID {
				posted = append(posted, sp)
			}
		}
		if got := surrogatesOf(want.ID); !slices.EqualFunc(got, posted, sameSurrogate) {
			t.Errorf("%s: surrogates of %s read back as %+v, posted %+v", path, want.ID, got, posted)
		}
	}
}

// TestFeatureWireRoundTrip posts every record shape of wireRecords to a
// log-backed primary over POST /v2/batch, before and after a follower
// bootstraps, and reads each back through every path a record leaves the
// store by: GET /v2/objects, /v2/snapshot, /v2/changes, the follower's
// apply (bootstrap and feed) and its idempotent re-bootstrap, OPM export,
// a reopen of the log, and Compact followed by a reopen.
func TestFeatureWireRoundTrip(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "primary.log")
	lb, err := plus.Open(path, plus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { lb.Close() }()
	lat := privilege.TwoLevel()
	srv := plus.NewServer(plus.NewEngine(lb, lat))
	plusql.Attach(srv, plusql.NewEngine(lb, lat))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := plusclient.New(ts.URL, plusclient.WithViewer("Protected"))

	post := func(p string) {
		objects, surrogates := wireRecords(p)
		if _, err := c.Batch(ctx, plusclient.BatchRequest{Objects: objects, Surrogates: surrogates}); err != nil {
			t.Fatal(err)
		}
	}
	post("a-") // the follower bootstraps these from /v2/snapshot
	r, fb := newFollower(t, ts.URL)
	runFollower(t, r)
	waitCaughtUp(t, r)
	post("b-") // and follows these over /v2/changes
	waitForRev(t, r, lb.Revision())

	objA, surA := wireRecords("a-")
	objB, surB := wireRecords("b-")
	objects, surrogates := append(objA, objB...), append(surA, surB...)
	byID := func(list []plus.Object) func(string) (plus.Object, bool) {
		return func(id string) (plus.Object, bool) {
			i := slices.IndexFunc(list, func(o plus.Object) bool { return o.ID == id })
			if i < 0 {
				return plus.Object{}, false
			}
			return list[i], true
		}
	}
	byFor := func(list []plus.SurrogateSpec) func(string) []plus.SurrogateSpec {
		return func(id string) []plus.SurrogateSpec {
			var out []plus.SurrogateSpec
			for _, sp := range list {
				if sp.ForID == id {
					out = append(out, sp)
				}
			}
			return out
		}
	}
	backend := func(b plus.Backend) (func(string) (plus.Object, bool), func(string) []plus.SurrogateSpec) {
		return func(id string) (plus.Object, bool) {
			o, err := b.GetObject(id)
			return o, err == nil
		}, b.SurrogatesOf
	}

	checkWire(t, "GET /v2/objects", objects, nil, func(id string) (plus.Object, bool) {
		o, err := c.GetObject(ctx, id)
		return o, err == nil
	}, func(string) []plus.SurrogateSpec { return nil })

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkWire(t, "/v2/snapshot", objects, surrogates, byID(snap.Objects), byFor(snap.Surrogates))

	events, _, err := c.Changes(ctx, "", plusclient.ChangesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var fedObjects []plus.Object
	var fedSurrogates []plus.SurrogateSpec
	for _, ev := range events {
		switch {
		case ev.Object != nil:
			fedObjects = append(fedObjects, *ev.Object)
		case ev.Surrogate != nil:
			fedSurrogates = append(fedSurrogates, *ev.Surrogate)
		}
	}
	checkWire(t, "/v2/changes", objects, surrogates, byID(fedObjects), byFor(fedSurrogates))

	get, surr := backend(fb)
	checkWire(t, "follower", objects, surrogates, get, surr)
	// A second follower over the same store bootstraps again: the
	// idempotence filter compares each record with the stored one, so
	// nothing may be applied twice.
	r2, _ := newFollower(t, ts.URL, func(cfg *Config) { cfg.Backend = fb })
	runFollower(t, r2)
	waitCaughtUp(t, r2)
	for _, o := range objects {
		if n := objectWrites(t, fb, o.ID); n != 1 {
			t.Errorf("follower stored %s %d times, want once: the re-bootstrap saw it differ", o.ID, n)
		}
	}
	checkWire(t, "follower re-bootstrap", objects, surrogates, get, surr)

	var opm bytes.Buffer
	if err := plus.ExportOPM(lb, &opm); err != nil {
		t.Fatal(err)
	}
	imported := plus.NewMemBackend(0)
	defer imported.Close()
	if err := plus.ImportOPM(imported, &opm); err != nil {
		t.Fatal(err)
	}
	get, _ = backend(imported)
	checkWire(t, "OPM export", objects, nil, get, func(string) []plus.SurrogateSpec { return nil })

	ts.Close()
	reopen := func(what string) {
		t.Helper()
		if err := lb.Close(); err != nil {
			t.Fatal(err)
		}
		if lb, err = plus.Open(path, plus.Options{}); err != nil {
			t.Fatal(err)
		}
		get, surr := backend(lb)
		checkWire(t, what, objects, surrogates, get, surr)
	}
	reopen("log reopen")
	if err := lb.Compact(); err != nil {
		t.Fatal(err)
	}
	get, surr = backend(lb)
	checkWire(t, "Compact", objects, surrogates, get, surr)
	reopen("Compact and reopen")
}

package plus

import (
	"errors"
	"fmt"
	"net/url"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/privilege"
)

// startNameFixture builds two disjoint chains whose sinks share the name
// "report" (a1 -> a2 -> a3, b1 -> b2 -> b3) plus an unrelated object.
func startNameFixture(t *testing.T) *MemBackend {
	t.Helper()
	b := NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	for _, chain := range []string{"a", "b"} {
		for i := 1; i <= 3; i++ {
			o := Object{ID: fmt.Sprintf("%s%d", chain, i), Kind: Data}
			if i == 3 {
				o.Name = "report"
			}
			if err := b.PutObject(o); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < 3; i++ {
			e := Edge{
				From:  fmt.Sprintf("%s%d", chain, i),
				To:    fmt.Sprintf("%s%d", chain, i+1),
				Label: "input-to",
			}
			if err := b.PutEdge(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.PutObject(Object{ID: "c1", Kind: Data, Name: "other"}); err != nil {
		t.Fatal(err)
	}
	return b
}

func lineageNodeIDs(t *testing.T, res *Result) []string {
	t.Helper()
	var ids []string
	for _, id := range res.Spec.Graph.Nodes() {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	return ids
}

// TestLineageStartName checks the multi-seed traversal: a name-seeded
// request must return the union of the per-seed closures, deterministic
// across runs, and hit ErrNotFound when the name matches nothing.
func TestLineageStartName(t *testing.T) {
	b := startNameFixture(t)
	en := NewEngine(b, privilege.TwoLevel())

	multi, err := en.Lineage(Request{StartName: "report", Direction: graph.Backward})
	if err != nil {
		t.Fatal(err)
	}
	got := lineageNodeIDs(t, multi)
	want := []string{"a1", "a2", "a3", "b1", "b2", "b3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StartName closure = %v, want %v", got, want)
	}

	// The multi-seed answer must equal the union of single-seed answers.
	union := map[string]bool{}
	for _, start := range []string{"a3", "b3"} {
		res, err := en.Lineage(Request{Start: start, Direction: graph.Backward})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range lineageNodeIDs(t, res) {
			union[id] = true
		}
	}
	if len(union) != len(got) {
		t.Fatalf("union of single-seed closures has %d nodes, multi-seed %d", len(union), len(got))
	}
	for _, id := range got {
		if !union[id] {
			t.Fatalf("multi-seed node %s missing from single-seed union", id)
		}
	}

	// Determinism: the fetched closure must not depend on posting order.
	again, err := en.Lineage(Request{StartName: "report", Direction: graph.Backward})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multi.Spec.Graph.Nodes(), again.Spec.Graph.Nodes()) {
		t.Fatal("name-seeded lineage is not deterministic")
	}

	// An explicit Start wins over StartName.
	single, err := en.Lineage(Request{Start: "a3", StartName: "report", Direction: graph.Backward})
	if err != nil {
		t.Fatal(err)
	}
	if got := lineageNodeIDs(t, single); !reflect.DeepEqual(got, []string{"a1", "a2", "a3"}) {
		t.Fatalf("Start+StartName closure = %v, want the Start chain only", got)
	}

	// No object carries the name: the request must fail, not answer empty.
	if _, err := en.Lineage(Request{StartName: "nope"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown StartName error = %v, want ErrNotFound", err)
	}
	if _, err := en.Lineage(Request{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty request error = %v, want ErrNotFound", err)
	}
}

// TestLineageStartNameCacheKey ensures name-seeded answers get their own
// cache entries instead of colliding with id-seeded ones.
func TestLineageStartNameCacheKey(t *testing.T) {
	b := startNameFixture(t)
	ce := NewCachedEngine(NewEngine(b, privilege.TwoLevel()))

	byID := cachedBody(t, ce, Request{Start: "a3", Direction: graph.Backward})
	byName := cachedBody(t, ce, Request{StartName: "report", Direction: graph.Backward})
	if nid, nname := len(decodeBody(t, byID).Nodes), len(decodeBody(t, byName).Nodes); nid == nname {
		t.Fatalf("cache served the same closure (%d nodes) for distinct seed specs", nid)
	}
	// Both answers must now be cache hits, each its own body.
	for req, first := range map[Request][]byte{
		{Start: "a3", Direction: graph.Backward}:         byID,
		{StartName: "report", Direction: graph.Backward}: byName,
	} {
		if !sameBody(cachedBody(t, ce, req), first) {
			t.Errorf("%+v: the second ask was not served the first's body", req)
		}
	}
	if hits := ce.Stats().Hits; hits != 2 {
		t.Fatalf("cache hits = %d, want 2", hits)
	}
}

// TestParseLineageStartName covers the HTTP parameter plumbing.
func TestParseLineageStartName(t *testing.T) {
	req, err := parseLineageParams(url.Values{"startName": {"report"}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Start != "" || req.StartName != "report" {
		t.Fatalf("parsed request = %+v, want StartName=report", req)
	}
	if _, err := parseLineageParams(url.Values{}); err == nil {
		t.Fatal("missing start/startName must be rejected")
	}
	if _, err := parseLineageParams(url.Values{"start": {"a3"}, "startName": {"report"}}); err == nil {
		t.Fatal("start and startName together must be rejected")
	}
}

package plus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/privilege"
)

// These tests pin what a change-feed delta evicts from the lineage cache:
// every answer it can change (the two stale-answer regressions and the
// differential against a fresh engine) and nothing it cannot (the counter
// test).

// TestCachedEngineKindFilterRestore: an object the KindFilter kept out of
// the closure is re-stored with the filtered kind. It is in no closure,
// so only the kind itself can say the cached answer is stale.
func TestCachedEngineKindFilterRestore(t *testing.T) {
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	if _, err := m.Apply(Batch{
		Objects: []Object{{ID: "a", Kind: Invocation, Name: "a"}, {ID: "b", Kind: Data, Name: "b"}},
		Edges:   []Edge{{From: "a", To: "b"}},
	}); err != nil {
		t.Fatal(err)
	}
	en := NewEngine(m, privilege.TwoLevel())
	ce := NewCachedEngine(en)
	req := Request{Start: "b", Direction: graph.Backward, KindFilter: Data}
	if n := len(decodeBody(t, cachedBody(t, ce, req)).Nodes); n != 1 {
		t.Fatalf("before the re-store: %d nodes; want 1", n)
	}
	if err := m.PutObject(Object{ID: "a", Kind: Data, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	assertCachedIsFresh(t, ce, en, req)
	if n := len(decodeBody(t, cachedBody(t, ce, req)).Nodes); n != 2 {
		t.Errorf("after a became data: %d nodes, want 2", n)
	}
}

// TestCachedEngineStartNameNewSeed: a second object takes the name a
// cached multi-seed answer was asked by. The new seed is in no closure.
func TestCachedEngineStartNameNewSeed(t *testing.T) {
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	if err := m.PutObject(Object{ID: "r1", Kind: Data, Name: "report"}); err != nil {
		t.Fatal(err)
	}
	en := NewEngine(m, privilege.TwoLevel())
	ce := NewCachedEngine(en)
	req := Request{StartName: "report"}
	if n := len(decodeBody(t, cachedBody(t, ce, req)).Nodes); n != 1 {
		t.Fatalf("one report: %d nodes; want 1", n)
	}
	if err := m.PutObject(Object{ID: "r2", Kind: Data, Name: "report"}); err != nil {
		t.Fatal(err)
	}
	assertCachedIsFresh(t, ce, en, req)
	if n := len(decodeBody(t, cachedBody(t, ce, req)).Nodes); n != 2 {
		t.Errorf("two reports: %d nodes, want 2", n)
	}
}

// TestCachedEngineChildUnderBackwardStartEvictsNothing: hanging a child
// under the start of a cached backward answer adds an edge FROM its
// closure; a backward walk only reads edges INTO it, so the answer stands.
// The same write does change the forward answer from that start, and it
// drops a backward answer nobody has asked for twice: direction is only
// trusted for answers that have been served from the cache.
func TestCachedEngineChildUnderBackwardStartEvictsNothing(t *testing.T) {
	en := lineageFixture(t)
	ce := NewCachedEngine(en)
	back := Request{Start: "report", Direction: graph.Backward}
	fwd := Request{Start: "report", Direction: graph.Forward}
	once := Request{Start: "report", Direction: graph.Backward, Depth: 1}
	ask := func(req Request) []byte {
		t.Helper()
		return cachedBody(t, ce, req)
	}
	attach := func(child string) {
		t.Helper()
		if _, err := en.store.Apply(Batch{
			Objects: []Object{{ID: child, Kind: Data, Name: child}},
			Edges:   []Edge{{From: "report", To: child, Label: "input-to"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	evictions := func() uint64 { return ce.Stats().DeltaEvictions }

	cached := ask(back)
	if !sameBody(ask(back), cached) {
		t.Fatal("the second ask was not a hit")
	}
	attach("child1")
	if !sameBody(ask(back), cached) {
		t.Error("a child under the start evicted a served backward answer")
	}
	if n := evictions(); n != 0 {
		t.Errorf("delta evictions = %d, want 0", n)
	}
	assertCachedIsFresh(t, ce, en, back)

	ask(fwd)
	ask(fwd)
	askedOnce := ask(once)
	attach("child2")
	assertCachedIsFresh(t, ce, en, fwd)
	if n := evictions(); n != 2 {
		t.Errorf("delta evictions = %d, want 2: the forward answer, which grew, and the backward one asked once", n)
	}
	if !sameBody(ask(back), cached) {
		t.Error("the second child evicted the served backward answer")
	}
	if sameBody(ask(once), askedOnce) {
		t.Error("a backward answer asked once outlived a write next to it")
	}
}

// assertCachedIsFresh asks the cached engine and a fresh computation the
// same question and requires the same refusal, or the same body byte for
// byte but for the timing block, from a fresh answer sound for its
// viewer. It asks the cache twice and requires the second ask to return
// the first's slice, so the answer it leaves behind has been served and
// faces the next delta under the directional rule.
func assertCachedIsFresh(t *testing.T, ce *CachedEngine, en *Engine, req Request) {
	t.Helper()
	got, gotErr := ce.LineageBody(context.Background(), req)
	if again, _ := ce.LineageBody(context.Background(), req); gotErr == nil && !sameBody(again, got) {
		t.Fatalf("%+v: asked twice at one revision, served two bodies", req)
	}
	want, wantErr := en.Lineage(req)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%+v: cached err %v, fresh err %v", req, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrNotFound) || !errors.Is(wantErr, ErrNotFound) {
			t.Fatalf("%+v: cached err %v, fresh err %v", req, gotErr, wantErr)
		}
		return
	}
	wantBody, err := appendLineageBody(nil, req.withDefaults(), want)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := stripTiming(got), stripTiming(wantBody); g != w {
		t.Fatalf("%+v: cached body differs from a fresh one\ncached:\n%s\nfresh:\n%s", req, g, w)
	}
	if err := account.VerifySound(want.Spec, want.Account); err != nil {
		t.Fatalf("%+v: fresh answer unsound: %v", req, err)
	}
}

// TestCachedEngineEvictionDifferential caches the cross product of
// request shapes over a random DAG, then applies random small batches —
// new nodes above and below, new edges, new surrogates, re-stores that
// change kind, name, Lowest and Protect — and after every batch requires
// each cached answer to equal a fresh Engine.Lineage.
func TestCachedEngineEvictionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })

	names := []string{"report", "feed", "model", "table", "index", "digest"}
	labels := []string{"input-to", "generated-by"}
	// A surrogate must sit strictly below its original, so only protected
	// objects get one and an object that has one stays protected.
	protected, hasSurrogate := map[string]bool{}, map[string]bool{}
	randObject := func(id string) Object {
		o := Object{ID: id, Kind: Data, Name: names[rng.Intn(len(names))]}
		if rng.Intn(2) == 0 {
			o.Kind = Invocation
		}
		if protected[id] = hasSurrogate[id] || rng.Intn(3) == 0; protected[id] {
			o.Lowest = "Protected"
			o.Protect = []string{"", "surrogate", "hide"}[rng.Intn(3)]
		}
		return o
	}
	// ids are numbered in topological order: edges only run low -> high.
	// Nodes fall into lanes by number and edges stay inside a lane, so a
	// closure covers part of the graph (several lanes when seeded by name)
	// and most writes miss most answers: the kept entries are the ones
	// that have to be right.
	const lanes = 4
	var ids []string
	nodeID := func(i int) string { return fmt.Sprintf("n%03d", i) }
	edges := map[[2]int]bool{}
	randEdge := func(lo, hi int) (Edge, bool) {
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi || edges[[2]int{lo, hi}] {
			return Edge{}, false
		}
		edges[[2]int{lo, hi}] = true
		return Edge{From: nodeID(lo), To: nodeID(hi), Label: labels[rng.Intn(len(labels))]}, true
	}

	// below picks a node of i's lane numbered under i (i itself when it is
	// the lane's first, which randEdge refuses).
	below := func(i int) int {
		if i < lanes {
			return i
		}
		return i%lanes + lanes*rng.Intn(i/lanes)
	}

	var seedBatch Batch
	// Every step asks 144 questions twice; sizes keep that in seconds.
	const initial, maxNodes = 16, 32
	for i := 0; i < initial; i++ {
		ids = append(ids, nodeID(i))
		seedBatch.Objects = append(seedBatch.Objects, randObject(nodeID(i)))
		for k := 0; k < 2; k++ {
			if e, ok := randEdge(below(i), i); ok {
				seedBatch.Edges = append(seedBatch.Edges, e)
			}
		}
	}
	if _, err := m.Apply(seedBatch); err != nil {
		t.Fatal(err)
	}

	en := NewEngine(m, privilege.TwoLevel())
	ce := NewCachedEngine(en)
	var reqs []Request
	for _, dir := range []graph.Direction{graph.Backward, graph.Forward, graph.Undirected} {
		for _, depth := range []int{0, 2, 3} {
			for _, label := range []string{"", labels[0]} {
				for _, kind := range []ObjectKind{"", Data} {
					for _, viewer := range []privilege.Predicate{privilege.Public, "Protected"} {
						base := Request{Direction: dir, Depth: depth, LabelFilter: label, KindFilter: kind, Viewer: viewer}
						byID, byName := base, base
						byID.Start = nodeID(initial / 2)
						byName.StartName = names[0]
						reqs = append(reqs, byID, byName)
					}
				}
			}
		}
	}
	for _, req := range reqs {
		assertCachedIsFresh(t, ce, en, req)
	}

	for step := 0; step < 200; step++ {
		var b Batch
		draw := rng.Intn(7)
		if len(ids) >= maxNodes && (draw == 0 || draw == 4) {
			draw++ // the graph is as big as the run can afford: re-store instead
		}
		switch existing := 1 + rng.Intn(len(ids)-1); draw {
		case 0: // a child under an existing node
			child := len(ids)
			ids = append(ids, nodeID(child))
			b.Objects = append(b.Objects, randObject(nodeID(child)))
			if e, ok := randEdge(below(child), child); ok {
				b.Edges = append(b.Edges, e)
			}
		case 1, 5: // a re-store: kind, name, Lowest and Protect all redrawn
			b.Objects = append(b.Objects, randObject(nodeID(existing)))
		case 2, 6: // an edge between two existing nodes
			if e, ok := randEdge(below(existing), existing); ok {
				b.Edges = append(b.Edges, e)
			}
		case 3: // a surrogate for an existing protected node
			if id := nodeID(existing); protected[id] {
				hasSurrogate[id] = true
				b.Surrogates = append(b.Surrogates, SurrogateSpec{
					ForID: id, ID: fmt.Sprintf("%s~%d", id, step), Name: "anon", InfoScore: rng.Float64(),
				})
			}
		case 4: // a new node with edges from two existing ones
			child := len(ids)
			ids = append(ids, nodeID(child))
			b.Objects = append(b.Objects, randObject(nodeID(child)))
			for k := 0; k < 2; k++ {
				if e, ok := randEdge(below(child), child); ok {
					b.Edges = append(b.Edges, e)
				}
			}
		}
		if b.Len() == 0 {
			step-- // the draw was not applicable; every counted step writes
			continue
		}
		if _, err := m.Apply(b); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, req := range reqs {
			assertCachedIsFresh(t, ce, en, req)
		}
	}
	st := ce.Stats()
	if st.Wipes != 0 || st.Hits == 0 || st.DeltaEvictions == 0 {
		t.Errorf("the run must exercise hits and delta evictions without a wipe: %+v", st)
	}
}

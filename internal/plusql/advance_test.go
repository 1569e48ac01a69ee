package plusql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/internal/workload"
)

// assertSameView checks an advanced view is indistinguishable from a view
// built from scratch off the same snapshot: same nodes, posting lists,
// adjacency and reachability answers.
func assertSameView(t *testing.T, label string, got, want *View) {
	t.Helper()
	if !reflect.DeepEqual(got.byKind, want.byKind) {
		t.Fatalf("%s: kind postings differ:\n got %v\nwant %v", label, got.byKind, want.byKind)
	}
	if !reflect.DeepEqual(got.byName, want.byName) {
		t.Fatalf("%s: name postings differ:\n got %v\nwant %v", label, got.byName, want.byName)
	}
	if !reflect.DeepEqual(got.byAttr, want.byAttr) {
		t.Fatalf("%s: attr postings differ:\n got %v\nwant %v", label, got.byAttr, want.byAttr)
	}
	if got.Revision() != want.Revision() {
		t.Fatalf("%s: revision %d != %d", label, got.Revision(), want.Revision())
	}
	if fmt.Sprint(got.Nodes()) != fmt.Sprint(want.Nodes()) {
		t.Fatalf("%s: nodes differ:\n got %v\nwant %v", label, got.Nodes(), want.Nodes())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: edges %d != %d", label, got.NumEdges(), want.NumEdges())
	}
	if !got.Account().Graph.Equal(want.Account().Graph) {
		t.Fatalf("%s: account graphs differ:\n got %v\nwant %v",
			label, got.Account().Graph.Edges(), want.Account().Graph.Edges())
	}
	for _, kind := range []string{"data", "invocation"} {
		if fmt.Sprint(got.NodesByKind(kind)) != fmt.Sprint(want.NodesByKind(kind)) {
			t.Fatalf("%s: kind %q index differs:\n got %v\nwant %v",
				label, kind, got.NodesByKind(kind), want.NodesByKind(kind))
		}
	}
	for _, id := range want.Nodes() {
		if fmt.Sprint(got.Out(id)) != fmt.Sprint(want.Out(id)) {
			t.Fatalf("%s: Out(%s) differs:\n got %v\nwant %v", label, id, got.Out(id), want.Out(id))
		}
		if fmt.Sprint(got.In(id)) != fmt.Sprint(want.In(id)) {
			t.Fatalf("%s: In(%s) differs:\n got %v\nwant %v", label, id, got.In(id), want.In(id))
		}
		if fmt.Sprint(got.Features(id)) != fmt.Sprint(want.Features(id)) {
			t.Fatalf("%s: Features(%s) differ", label, id)
		}
		if fmt.Sprint(got.Reach(id, graph.Forward)) != fmt.Sprint(want.Reach(id, graph.Forward)) {
			t.Fatalf("%s: Reach(%s, fwd) differs:\n got %v\nwant %v",
				label, id, got.Reach(id, graph.Forward), want.Reach(id, graph.Backward))
		}
		if fmt.Sprint(got.Reach(id, graph.Backward)) != fmt.Sprint(want.Reach(id, graph.Backward)) {
			t.Fatalf("%s: Reach(%s, back) differs", label, id)
		}
	}
}

// advanceParity drives interleaved writes and view advances against one
// backend, asserting parity with from-scratch builds at every revision.
func advanceParity(t *testing.T, b plus.Backend, mode plus.Mode) {
	lat := privilege.TwoLevel()
	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(sn, lat, privilege.Public, mode)
	if err != nil {
		t.Fatal(err)
	}

	// Warm some reachability memos so the patch path has state to keep.
	for _, id := range v.Nodes() {
		v.Reach(id, graph.Forward)
	}

	check := func(label string) {
		t.Helper()
		sn, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		nv, info, ok := v.Advance(sn)
		if !ok {
			t.Fatalf("%s: advance refused", label)
		}
		if nv != v {
			t.Fatalf("%s: Advance returned another view; it advances in place", label)
		}
		want, err := NewView(sn, lat, privilege.Public, mode)
		if err != nil {
			t.Fatal(err)
		}
		assertSameView(t, fmt.Sprintf("%s (walked=%d pairs=%d rebuilt=%v)", label, info.Walked, info.Pairs, info.AccountRebuilt), v, want)
		// The same snapshot again is a no-op, not a refusal.
		if _, _, ok := v.Advance(sn); !ok {
			t.Fatalf("%s: second advance to the same snapshot refused", label)
		}
	}

	// Additive growth: a fresh branch with a protected node + surrogate in
	// one batch.
	batch := plus.Batch{
		Objects: []plus.Object{
			{ID: "n1", Kind: plus.Data, Name: "n1"},
			{ID: "n2", Kind: plus.Invocation, Name: "n2", Lowest: "Protected", Protect: "surrogate"},
		},
		Edges:      []plus.Edge{{From: "b", To: "n1", Label: "input-to"}, {From: "n1", To: "n2", Label: "input-to"}},
		Surrogates: []plus.SurrogateSpec{{ForID: "n2", ID: "n2~", Name: "anon", InfoScore: 0.4}},
	}
	if _, err := b.Apply(batch); err != nil {
		t.Fatal(err)
	}
	check("batch with protected node")

	// A single public write.
	if err := b.PutObject(plus.Object{ID: "n3", Kind: plus.Data, Name: "n3"}); err != nil {
		t.Fatal(err)
	}
	check("single object")

	// An edge into the protected chain.
	if err := b.PutEdge(plus.Edge{From: "n3", To: "n2", Label: "input-to"}); err != nil {
		t.Fatal(err)
	}
	check("edge into protected chain")

	// A benign feature refresh of an existing node.
	if err := b.PutObject(plus.Object{ID: "a", Kind: plus.Data, Name: "raw v2", Features: map[string]string{"owner": "alice"}}); err != nil {
		t.Fatal(err)
	}
	check("feature refresh")

	// A protection change: node becomes hidden. Localisation fails for the
	// surrogate generator (account rebuild) but the advance still lands on
	// the scratch view; hide mode patches it incrementally.
	if err := b.PutObject(plus.Object{ID: "n1", Kind: plus.Data, Name: "n1", Lowest: "Protected", Protect: "hide"}); err != nil {
		t.Fatal(err)
	}
	check("reclassification")

	// A marked edge.
	if err := b.PutObject(plus.Object{ID: "n4", Kind: plus.Data, Name: "n4"}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutEdge(plus.Edge{From: "n4", To: "n3", Label: "input-to", Marking: "surrogate", Lowest: "Protected"}); err != nil {
		t.Fatal(err)
	}
	check("marked edge")
}

func TestViewAdvanceParitySurrogate(t *testing.T) {
	advanceParity(t, exampleBackend(t), plus.ModeSurrogate)
}

func TestViewAdvanceParityHide(t *testing.T) {
	advanceParity(t, exampleBackend(t), plus.ModeHide)
}

// TestEngineAdvanceStats checks the engine serves repeated queries across
// writes by advancing views rather than rebuilding them.
func TestEngineAdvanceStats(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	q := `node(X), kind(X, data)`
	if _, err := e.Query(q, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := b.PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.FullBuilds != 1 {
		t.Errorf("full builds = %d, want 1 (only the cold start)", st.FullBuilds)
	}
	if st.Advanced != 10 {
		t.Errorf("advanced = %d, want 10", st.Advanced)
	}
	if st.Views != 1 {
		t.Errorf("cached views = %d, want 1", st.Views)
	}

	// With incremental refresh off, every write forces a full build.
	e2 := NewEngine(exampleBackend(t), privilege.TwoLevel())
	e2.incremental = false
	if _, err := e2.Query(q, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := e2.store.PutObject(plus.Object{ID: "w", Kind: plus.Data, Name: "w"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Query(q, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := e2.CacheStats(); st.FullBuilds != 2 || st.Advanced != 0 {
		t.Errorf("non-incremental stats = %+v, want 2 full builds", st)
	}
}

// naiveRows evaluates src by scan-and-filter in source order against a
// view: the reference the engine's answers are held to.
func naiveRows(t *testing.T, v *View, src string) [][]Binding {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, ViewStats(v), true)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := run(context.Background(), plan, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows
}

// TestEngineTwoViewersKeepTheirViews: one viewer's refresh never costs
// another viewer its view — alternating viewers across writes advances
// both, and the only full builds are the two cold starts.
func TestEngineTwoViewersKeepTheirViews(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	viewers := []privilege.Predicate{privilege.Public, "Protected"}
	for i := 0; i <= 10; i++ {
		for _, viewer := range viewers {
			if _, err := e.Query(`node(X)`, Options{Viewer: viewer}); err != nil {
				t.Fatal(err)
			}
		}
		id := fmt.Sprintf("w%d", i)
		if err := b.PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.FullBuilds != 2 || st.Advanced != 20 || st.Fallbacks != 0 || st.Views != 2 || st.Misses != 22 {
		t.Errorf("stats = %+v, want 2 full builds (the cold starts), 20 advances, 22 misses, 2 views", st)
	}
}

// TestEngineAdvanceConcurrent runs 2 viewers × 4 query goroutines against
// a writer applying small batches (exercised under -race in CI): every
// refresh after the two cold starts is an in-place advance shared by the
// viewer's readers, and what the advanced views answer afterwards is what
// a fresh view answers under naive evaluation.
func TestEngineAdvanceConcurrent(t *testing.T) {
	b := exampleBackend(t)
	lat := privilege.TwoLevel()
	e := NewEngine(b, lat)
	viewers := []privilege.Predicate{privilege.Public, "Protected"}
	queries := []string{
		`descendant*(X, "b")`,
		`kind(X, data), ancestor*("b", X)`,
		`ancestor*(X, "b")`,
		`kind(X, invocation)`,
		`name(X, "anon")`,
		`edge(X, Y, "surrogate")`,
	}
	// Cold-start both viewers first so the build count below is exact.
	for _, viewer := range viewers {
		if _, err := e.Query(queries[0], Options{Viewer: viewer}); err != nil {
			t.Fatal(err)
		}
	}

	const batches = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < batches; i++ {
			id := fmt.Sprintf("c%d", i)
			batch := plus.Batch{
				Objects: []plus.Object{{ID: id, Kind: plus.Data, Name: id}},
				Edges:   []plus.Edge{{From: "b", To: id, Label: "input-to"}},
			}
			if i%5 == 0 {
				// A protected step with its surrogate between id and an output.
				batch.Objects = append(batch.Objects,
					plus.Object{ID: id + "p", Kind: plus.Invocation, Name: "step", Lowest: "Protected", Protect: "surrogate"},
					plus.Object{ID: id + "q", Kind: plus.Data, Name: "out"})
				batch.Edges = append(batch.Edges,
					plus.Edge{From: id, To: id + "p", Label: "input-to"},
					plus.Edge{From: id + "p", To: id + "q", Label: "generated"})
				batch.Surrogates = []plus.SurrogateSpec{{ForID: id + "p", ID: id + "p~", Name: "anon", InfoScore: 0.4}}
			}
			if _, err := b.Apply(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Query(queries[(g+i)%len(queries)], Options{Viewer: viewers[g%2]}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, viewer := range viewers {
		fresh, err := NewView(sn, lat, viewer, plus.ModeSurrogate)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range queries {
			rs, err := e.Query(src, Options{Viewer: viewer})
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveRows(t, fresh, src); fmt.Sprint(rs.Rows) != fmt.Sprint(want) {
				t.Errorf("%s as %s:\n got %v\nwant %v", src, viewer, rs.Rows, want)
			}
		}
		v := e.slots[slotKey{viewer: viewer, mode: plus.ModeSurrogate}].view
		assertSameView(t, "advanced view of "+string(viewer), v, fresh)
		if err := account.VerifySound(v.spec, v.acct); err != nil {
			t.Errorf("advanced account of %s: %v", viewer, err)
		}
	}
	if rs, _ := e.Query(queries[0], Options{}); len(rs.Rows) < batches+batches/5 {
		t.Errorf("Public sees %d descendants of b, want every c<i> and, past the surrogate edges, every c<i>q", len(rs.Rows))
	}
	st := e.CacheStats()
	if st.FullBuilds != 2 || st.Fallbacks != 0 || st.Misses != 2+st.Advanced+st.AdvanceRebuilds {
		t.Errorf("stats = %+v, want 2 full builds (the cold starts), no fallback, every other miss an advance", st)
	}
}

// TestEngineAdvanceTooFarBehind drives more writes than the mem backend's
// change feed retains: that viewer's slot — and nothing else — falls back
// to one full build, and answers stay correct.
func TestEngineAdvanceTooFarBehind(t *testing.T) {
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	b.SetChangeHorizon(4)
	put := func(id string) {
		t.Helper()
		if err := b.PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		put(fmt.Sprintf("s%d", i))
	}
	e := NewEngine(b, privilege.TwoLevel())
	rows := func(viewer privilege.Predicate) int {
		t.Helper()
		rs, err := e.Query(`node(X)`, Options{Viewer: viewer})
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.Rows)
	}
	if n := rows(privilege.Public) + rows("Protected"); n != 6 {
		t.Fatalf("rows = %d, want 3 per viewer", n)
	}
	// Burst far past the horizon; only Public asks afterwards.
	for i := 0; i < 50; i++ {
		put(fmt.Sprintf("t%d", i))
	}
	if n := rows(privilege.Public); n != 53 {
		t.Fatalf("rows after burst = %d, want 53", n)
	}
	st := e.CacheStats()
	if st.Fallbacks != 1 || st.FullBuilds != 3 || st.Views != 2 {
		t.Errorf("stats = %+v, want 1 fallback, 3 full builds (2 cold starts + 1), and the idle viewer's view kept", st)
	}
	// Inside the window again Public advances; the idle viewer's view has
	// left the window and pays its own one fallback when it returns.
	put("u")
	if n := rows(privilege.Public) + rows("Protected"); n != 108 {
		t.Fatalf("rows after return = %d, want 54 per viewer", n)
	}
	st = e.CacheStats()
	if st.Fallbacks != 2 || st.FullBuilds != 4 || st.Advanced != 1 {
		t.Errorf("stats = %+v, want 2 fallbacks, 4 full builds, 1 advance", st)
	}
}

// TestViewAdvanceRandomParity drives randomized deltas — new nodes (some
// protected, some with surrogates), edges, feature refreshes and
// reclassifications — through View.Advance in both modes for both
// viewers, holding the advanced view to a fresh NewView and its account
// to VerifySound / VerifyMaximal after every step.
func TestViewAdvanceRandomParity(t *testing.T) {
	lat := privilege.TwoLevel()
	for _, mode := range []plus.Mode{plus.ModeSurrogate, plus.ModeHide} {
		for _, viewer := range []privilege.Predicate{privilege.Public, "Protected"} {
			for seed := int64(1); seed <= 3; seed++ {
				mode, viewer, seed := mode, viewer, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", mode, viewer, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					b := plus.NewMemBackend(0)
					t.Cleanup(func() { b.Close() })
					sn, _ := b.Snapshot()
					v, err := NewView(sn, lat, viewer, mode)
					if err != nil {
						t.Fatal(err)
					}
					var ids []string
					object := func(id string) plus.Object {
						o := plus.Object{
							ID:       id,
							Kind:     []plus.ObjectKind{plus.Data, plus.Invocation}[rng.Intn(2)],
							Name:     []string{"alpha", "beta", ""}[rng.Intn(3)],
							Features: map[string]string{"owner": []string{"alice", "bob"}[rng.Intn(2)]},
						}
						if rng.Intn(4) == 0 {
							o.Lowest, o.Protect = "Protected", []string{"surrogate", "hide"}[rng.Intn(2)]
						}
						return o
					}
					for step := 0; step < 40; step++ {
						var batch plus.Batch
						for op := 1 + rng.Intn(3); op > 0; op-- {
							switch k := rng.Intn(10); {
							case k < 5 || len(ids) < 2: // new node, maybe wired in
								id := fmt.Sprintf("n%03d", len(ids))
								o := object(id)
								batch.Objects = append(batch.Objects, o)
								if o.Protect == "surrogate" && rng.Intn(2) == 0 {
									batch.Surrogates = append(batch.Surrogates, plus.SurrogateSpec{
										ForID: id, ID: id + "~", Name: "anon", InfoScore: 0.5,
										Features: map[string]string{"kind": string(o.Kind)}})
								}
								if len(ids) > 0 && rng.Intn(3) > 0 {
									batch.Edges = append(batch.Edges, plus.Edge{From: ids[rng.Intn(len(ids))], To: id, Label: "input-to"})
								}
								ids = append(ids, id)
							case k < 8: // edge between stored nodes (validation rejects repeats)
								e := plus.Edge{From: ids[rng.Intn(len(ids))], To: ids[rng.Intn(len(ids))], Label: "derived"}
								if rng.Intn(4) == 0 {
									e.Marking, e.Lowest = "surrogate", "Protected"
								}
								batch.Edges = append(batch.Edges, e)
							default: // replace a node: new features, maybe new protection
								batch.Objects = append(batch.Objects, object(ids[rng.Intn(len(ids))]))
							}
						}
						if _, err := b.Apply(batch); err != nil {
							continue // a random self / duplicate / dangling edge: no write, no step
						}
						sn, err := b.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						// Warm a few memos so the patch has some to keep or drop.
						for _, id := range v.Nodes() {
							if rng.Intn(3) == 0 {
								v.Reach(id, graph.Forward)
								v.Reach(id, graph.Backward)
							}
						}
						_, info, ok := v.Advance(sn)
						if !ok {
							t.Fatalf("step %d: advance refused (%s)", step, info.Cause)
						}
						want, err := NewView(sn, lat, viewer, mode)
						if err != nil {
							t.Fatal(err)
						}
						assertSameView(t, fmt.Sprintf("step %d (%s)", step, info.Cause), v, want)
						if err := account.VerifySound(v.spec, v.acct); err != nil {
							t.Fatalf("step %d: VerifySound: %v", step, err)
						}
						if mode == plus.ModeSurrogate {
							if err := account.VerifyMaximal(v.spec, v.acct); err != nil {
								t.Fatalf("step %d: VerifyMaximal: %v", step, err)
							}
						}
					}
				})
			}
		}
	}
}

// advanceUnderProtectedParents builds plusbench's graph (one node in ten
// protected, restricted clusters at the percolation threshold) as Public,
// hangs one public child under each protected node in turn and hands the
// view and each child's snapshot to advance, which must advance the one to
// the other.
func advanceUnderProtectedParents(tb testing.TB, advance func(*View, *plus.Snapshot)) {
	tb.Helper()
	const nodes, every = 10000, 10
	b := largeBackendOf(tb, workload.LargeConfig{Nodes: nodes, EdgesPerNode: 5, ProtectEvery: every, Seed: 7})
	sn, err := b.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	v, err := NewView(sn, privilege.TwoLevel(), privilege.Public, plus.ModeSurrogate)
	if err != nil {
		tb.Fatal(err)
	}
	for i := every / 2; i < nodes; i += every {
		id := fmt.Sprintf("child-%d", i)
		_, err := b.Apply(plus.Batch{
			Objects: []plus.Object{{ID: id, Kind: plus.Data, Name: "child"}},
			Edges:   []plus.Edge{{From: workload.LargeNodeID(i), To: id, Label: "input-to"}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		if sn, err = b.Snapshot(); err != nil {
			tb.Fatal(err)
		}
		advance(v, sn)
	}
}

// TestAdvanceUnderProtectedParentWalksItsOwnAnchors: a write under a
// protected node costs the anchor walks of its own new edge, not the
// restricted region the node sits in (≈2 200 of these 10 000 nodes for the
// largest cluster). Counted in walk steps, no clock: measured sum 13 359
// and max 89 over the 1 000 advances, where closing the region visited
// 515 129 and 2 422.
func TestAdvanceUnderProtectedParentWalksItsOwnAnchors(t *testing.T) {
	var sum, max, pairs int
	advanceUnderProtectedParents(t, func(v *View, sn *plus.Snapshot) {
		_, info, ok := v.Advance(sn)
		if !ok || info.AccountRebuilt {
			t.Fatalf("advance: ok=%v info=%+v, want a localised advance", ok, info)
		}
		sum += info.Walked
		if info.Walked > max {
			max = info.Walked
		}
		pairs += info.Pairs
	})
	t.Logf("1 000 advances under protected parents: %d walk visits (max %d), %d candidate pairs", sum, max, pairs)
	if sum > 27000 || max > 180 {
		t.Errorf("walk visits: sum %d, max %d; want at most 27 000 and 180", sum, max)
	}
}

// BenchmarkAdvanceUnderProtectedParent times the same 1 000 advances, and
// only them.
func BenchmarkAdvanceUnderProtectedParent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		advanceUnderProtectedParents(b, func(v *View, sn *plus.Snapshot) {
			b.StartTimer()
			_, _, ok := v.Advance(sn)
			b.StopTimer()
			if !ok {
				b.Fatal("advance refused")
			}
		})
		b.StartTimer()
	}
}

package plusql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
)

// exampleBackend builds the running-example store:
//
//	d -> a -> p -> b      p: invocation, Lowest Protected, surrogate p~
//	     c ------> b      c: Lowest Protected, Protect hide (no surrogate)
//
// A Public consumer's protected account is d -> a -> p~ -> b: p appears
// only as its surrogate, c not at all.
func exampleBackend(t testing.TB) plus.Backend {
	t.Helper()
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	objs := []plus.Object{
		{ID: "a", Kind: plus.Data, Name: "raw", Features: map[string]string{"owner": "alice"}},
		{ID: "b", Kind: plus.Data, Name: "report", Features: map[string]string{"owner": "alice"}},
		{ID: "c", Kind: plus.Data, Name: "secret-src", Lowest: "Protected", Protect: "hide"},
		{ID: "d", Kind: plus.Data, Name: "field-data", Features: map[string]string{"owner": "bob"}},
		{ID: "p", Kind: plus.Invocation, Name: "classified-process", Lowest: "Protected"},
	}
	for _, o := range objs {
		if err := b.PutObject(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []plus.Edge{
		{From: "d", To: "a", Label: "input-to"},
		{From: "a", To: "p", Label: "input-to"},
		{From: "p", To: "b", Label: "generated"},
		{From: "c", To: "b", Label: "input-to"},
	} {
		if err := b.PutEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.PutSurrogate(plus.SurrogateSpec{
		ForID: "p", ID: "p~", Name: "a process", InfoScore: 0.5,
		Features: map[string]string{"kind": "invocation"},
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

func ids(t *testing.T, rs *ResultSet, v string) []string {
	t.Helper()
	col := -1
	for i, name := range rs.Vars {
		if name == v {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("var %s not in result vars %v", v, rs.Vars)
	}
	var out []string
	for _, row := range rs.Rows {
		out = append(out, row[col].ID)
	}
	sort.Strings(out)
	return out
}

func strEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueryPublicViewerTraversesSurrogates(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())

	rs, err := e.Query(`ancestor*(X, "b")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(t, rs, "X"), []string{"a", "d", "p~"}; !strEq(got, want) {
		t.Errorf("Public ancestors of b = %v, want %v", got, want)
	}
	for _, row := range rs.Rows {
		if row[0].ID == "p~" && !row[0].Surrogate {
			t.Errorf("p~ not flagged as surrogate: %+v", row[0])
		}
	}

	// The protected original and the hidden node never appear, and the
	// surrogate's features are the provider-released ones.
	rs, err = e.Query(`node(X)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		switch row[0].ID {
		case "p", "c":
			t.Errorf("policy leak: %s visible to Public", row[0].ID)
		case "p~":
			if row[0].Name != "a process" {
				t.Errorf("surrogate name = %q, want provider-released", row[0].Name)
			}
		}
	}
}

// TestContextCancellation proves deadlines and cancellation reach both
// query paths: a pre-cancelled context fails the lineage walk and the
// PLUSQL executor instead of running to completion, a live one still
// answers, and lineage over a closed store fails with ErrClosed.
func TestContextCancellation(t *testing.T) {
	b := exampleBackend(t)
	lineage := plus.NewCachedEngine(plus.NewEngine(b, privilege.TwoLevel()))
	query := NewEngine(b, privilege.TwoLevel())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lineage.LineageBody(ctx, plus.Request{Start: "b"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled lineage = %v, want context.Canceled", err)
	}
	if _, err := query.QueryContext(ctx, `node(X)`, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled query = %v, want context.Canceled", err)
	}
	if _, err := lineage.LineageBody(context.Background(), plus.Request{Start: "b"}); err != nil {
		t.Errorf("live context lineage: %v", err)
	}
	b.Close()
	if _, err := lineage.LineageBody(context.Background(), plus.Request{Start: "b"}); !errors.Is(err, plus.ErrClosed) {
		t.Errorf("lineage after close = %v, want ErrClosed", err)
	}
}

func TestQueryProtectedViewerSeesOriginals(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "b")`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(t, rs, "X"), []string{"a", "c", "d", "p"}; !strEq(got, want) {
		t.Errorf("Protected ancestors of b = %v, want %v", got, want)
	}
}

// TestQueryParityWithVerifiedAccount is the acceptance check: Public
// query bindings coincide exactly with the account.Verify-checked
// protected account the Surrogate Generation Algorithm produces.
func TestQueryParityWithVerifiedAccount(t *testing.T) {
	b := exampleBackend(t)
	lat := privilege.TwoLevel()
	e := NewEngine(b, lat)

	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plus.SpecFromSnapshot(sn, lat)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := account.Generate(spec, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	if err := account.VerifySound(spec, acct); err != nil {
		t.Fatalf("reference account unsound: %v", err)
	}
	if err := account.VerifyMaximal(spec, acct); err != nil {
		t.Fatalf("reference account not maximal: %v", err)
	}

	// node(X) must enumerate exactly the verified account's nodes.
	rs, err := e.Query(`node(X)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, id := range acct.Graph.Nodes() {
		want = append(want, string(id))
	}
	sort.Strings(want)
	if got := ids(t, rs, "X"); !strEq(got, want) {
		t.Errorf("node(X) = %v, want verified account nodes %v", got, want)
	}

	// edge(X, Y) must enumerate exactly the verified account's edges.
	rs, err = e.Query(`edge(X, Y)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var gotEdges, wantEdges []string
	for _, row := range rs.Rows {
		gotEdges = append(gotEdges, row[0].ID+"->"+row[1].ID)
	}
	for _, ge := range acct.Graph.Edges() {
		wantEdges = append(wantEdges, string(ge.From)+"->"+string(ge.To))
	}
	sort.Strings(gotEdges)
	sort.Strings(wantEdges)
	if !strEq(gotEdges, wantEdges) {
		t.Errorf("edge(X, Y) = %v, want verified account edges %v", gotEdges, wantEdges)
	}

	// ancestor* must match reachability in the verified account graph.
	for _, target := range acct.Graph.Nodes() {
		rs, err := e.Query(fmt.Sprintf("ancestor*(X, %q)", target), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wantAnc []string
		for id := range acct.Graph.Reachable(target, graph.Backward) {
			wantAnc = append(wantAnc, string(id))
		}
		sort.Strings(wantAnc)
		got := ids(t, rs, "X")
		if !strEq(got, wantAnc) {
			t.Errorf("ancestor*(X, %s) = %v, want %v", target, got, wantAnc)
		}
	}
}

func TestQueryHideModeMatchesGenerateHide(t *testing.T) {
	b := exampleBackend(t)
	lat := privilege.TwoLevel()
	e := NewEngine(b, lat)

	sn, _ := b.Snapshot()
	spec, err := plus.SpecFromSnapshot(sn, lat)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := account.GenerateHide(spec, privilege.Public)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.Query(`node(X)`, Options{Mode: plus.ModeHide})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, id := range acct.Graph.Nodes() {
		want = append(want, string(id))
	}
	sort.Strings(want)
	if got := ids(t, rs, "X"); !strEq(got, want) {
		t.Errorf("hide-mode node(X) = %v, want %v", got, want)
	}
}

func TestQueryPredicates(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	cases := []struct {
		src  string
		v    string
		want []string
	}{
		{`kind(X, data)`, "X", []string{"a", "b", "c", "d"}},
		{`kind(X, invocation)`, "X", []string{"p"}},
		{`name(X, "report")`, "X", []string{"b"}},
		{`attr(X, "owner", "bob")`, "X", []string{"d"}},
		{`edge(X, "b", "generated")`, "X", []string{"p"}},
		{`ancestor(X, "p")`, "X", []string{"a"}},
		{`descendant(X, "a")`, "X", []string{"p"}},
		{`descendant*(X, "d")`, "X", []string{"a", "b", "p"}},
		{`ans(Y) :- edge("a", Y)`, "Y", []string{"p"}},
		{`node(X), surrogate(X)`, "X", nil},
		{`kind(X, data), ancestor*(X, "b"), attr(X, "owner", "alice")`, "X", []string{"a"}},
	}
	for _, tc := range cases {
		rs, err := e.Query(tc.src, Options{Viewer: "Protected"})
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got := ids(t, rs, tc.v); !strEq(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestQueryLimitAndSetSemantics(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "b") limit 2`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("limit 2 returned %d rows", len(rs.Rows))
	}
	// Projection can collapse rows: distinct (X, Y) pairs projected to X
	// must dedupe.
	rs, err = e.Query(`ans(Y) :- ancestor*(X, Y)`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, row := range rs.Rows {
		if seen[row[0].ID] {
			t.Fatalf("duplicate projected row %q", row[0].ID)
		}
		seen[row[0].ID] = true
	}
}

// TestQueryPairScanStreamsUnderLimit: a both-unbound closure atom with a
// limit must not enumerate every node's closure — the pair scan streams
// lazily, so execution stops at the first emitted row.
func TestQueryPairScanStreamsUnderLimit(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, Y) limit 1`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("limit 1 returned %d rows", len(rs.Rows))
	}
	if rs.Stats.Examined > 2 {
		t.Errorf("pair scan examined %d candidates for limit 1, want <= 2", rs.Stats.Examined)
	}
}

func TestQueryMaxRowsCap(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`node(X)`, Options{Viewer: "Protected", MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("MaxRows 1 returned %d rows", len(rs.Rows))
	}
}

func TestQueryUnknownViewerAndMode(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	if _, err := e.Query(`node(X)`, Options{Viewer: "Nobody"}); err == nil {
		t.Error("no error for unknown viewer")
	}
	if _, err := e.Query(`node(X)`, Options{Mode: "bogus"}); err == nil {
		t.Error("no error for unknown mode")
	}
}

func TestQueryUnknownConstantAnchor(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "no-such-node")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("unknown anchor returned %d rows", len(rs.Rows))
	}
	// A Protect-hidden node used as a constant anchor is indistinguishable
	// from an unknown one: no rows, no error.
	rs, err = e.Query(`ancestor*(X, "c")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("hidden anchor leaked %d rows", len(rs.Rows))
	}
}

// TestQueryConstantCheckNotDropped: an all-constant filter atom must
// survive planning even when the planner orders a generator before it
// (regression: pushDown used to swallow node("const") checks).
func TestQueryConstantCheckNotDropped(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "b"), node("ghost")`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("node(\"ghost\") conjunct dropped: got %d rows", len(rs.Rows))
	}
	rs, err = e.Query(`ancestor*(X, "b"), node("a"), kind("p", invocation)`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Errorf("true constant checks changed results: got %d rows, want 4", len(rs.Rows))
	}
}

// TestQueryViewInvalidation checks queries see writes: the view cache is
// keyed by store revision.
func TestQueryViewInvalidation(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	rs, err := e.Query(`kind(X, data)`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	before := len(rs.Rows)
	if err := b.PutObject(plus.Object{ID: "z", Kind: plus.Data, Name: "new"}); err != nil {
		t.Fatal(err)
	}
	rs, err = e.Query(`kind(X, data)`, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != before+1 {
		t.Errorf("after write: %d rows, want %d", len(rs.Rows), before+1)
	}
}

// TestQueryConcurrent exercises the view cache and closure memo under
// the race detector (the CI race step runs this package).
func TestQueryConcurrent(t *testing.T) {
	b := exampleBackend(t)
	e := NewEngine(b, privilege.TwoLevel())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			viewer := privilege.Predicate("Protected")
			if i%2 == 0 {
				viewer = privilege.Public
			}
			for j := 0; j < 20; j++ {
				if _, err := e.Query(`ancestor*(X, "b"), kind(X, data)`, Options{Viewer: viewer}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				id := fmt.Sprintf("w%d-%d", i, j)
				if err := b.PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPlannedBeatsNaive asserts the planner's ordering + pushdown does
// strictly less work than naive source-order scan-and-filter on the
// pattern the benchmarks measure.
func TestPlannedBeatsNaive(t *testing.T) {
	e := NewEngine(exampleBackend(t), privilege.TwoLevel())
	src := `kind(X, data), ancestor*(X, "b")`
	planned, err := e.Query(src, Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := e.Query(src, Options{Viewer: "Protected", Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strEq(ids(t, planned, "X"), ids(t, naive, "X")) {
		t.Fatalf("planned %v != naive %v", ids(t, planned, "X"), ids(t, naive, "X"))
	}
	if planned.Stats.Examined >= naive.Stats.Examined {
		t.Errorf("planned examined %d >= naive %d", planned.Stats.Examined, naive.Stats.Examined)
	}
}

// TestClosureChecksFromTheConstantSide: on random DAGs and cyclic graphs a
// closure atom evaluated as a check — constant on either side, or two
// variables — returns the rows plain graph reachability dictates, planned
// and naive alike; and a constant-sided check memoises the constant's one
// closure, not a closure per candidate.
func TestClosureChecksFromTheConstantSide(t *testing.T) {
	lat := privilege.TwoLevel()
	for _, cyclic := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b := plus.NewMemBackend(0)
			t.Cleanup(func() { b.Close() })
			const n = 40
			id := func(i int) string { return fmt.Sprintf("g%02d", i) }
			var batch plus.Batch
			for i := 0; i < n; i++ {
				batch.Objects = append(batch.Objects, plus.Object{
					ID: id(i), Name: id(i), Kind: []plus.ObjectKind{plus.Data, plus.Invocation}[rng.Intn(2)]})
			}
			seen := map[[2]int]bool{}
			for len(batch.Edges) < 2*n {
				i, j := rng.Intn(n), rng.Intn(n)
				if !cyclic && i > j {
					i, j = j, i
				}
				if i == j || seen[[2]int{i, j}] {
					continue
				}
				seen[[2]int{i, j}] = true
				batch.Edges = append(batch.Edges, plus.Edge{From: id(i), To: id(j), Label: "input-to"})
			}
			if _, err := b.Apply(batch); err != nil {
				t.Fatal(err)
			}
			sn, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			g := func() *graph.Graph { // every node is public: the account is the graph
				v, err := NewView(sn, lat, privilege.Public, plus.ModeSurrogate)
				if err != nil {
					t.Fatal(err)
				}
				return v.acct.Graph
			}()
			reaches := func(from, to string) bool {
				return g.Reachable(graph.NodeID(from), graph.Forward)[graph.NodeID(to)]
			}
			data := func(x string) bool {
				nd, _ := g.NodeByID(graph.NodeID(x))
				return nd.Features["kind"] == "data"
			}

			c := id(rng.Intn(n))
			for _, tc := range []struct {
				src  string
				want func(x, y string) bool // y is "" for one-variable queries
				memo [2]int                 // fwdReach, backReach entries a naive run leaves
			}{
				{fmt.Sprintf(`kind(X, data), ancestor*(X, %q)`, c), func(x, _ string) bool { return data(x) && reaches(x, c) }, [2]int{0, 1}},
				{fmt.Sprintf(`kind(X, data), ancestor*(%q, X)`, c), func(x, _ string) bool { return data(x) && reaches(c, x) }, [2]int{1, 0}},
				{fmt.Sprintf(`kind(X, data), descendant*(X, %q)`, c), func(x, _ string) bool { return data(x) && reaches(c, x) }, [2]int{1, 0}},
				{fmt.Sprintf(`kind(X, data), descendant*(%q, X)`, c), func(x, _ string) bool { return data(x) && reaches(x, c) }, [2]int{0, 1}},
				{`kind(X, data), kind(Y, invocation), ancestor*(X, Y)`, func(x, y string) bool { return data(x) && !data(y) && reaches(x, y) }, [2]int{-1, 0}},
				{`kind(X, data), kind(Y, invocation), descendant*(X, Y)`, func(x, y string) bool { return data(x) && !data(y) && reaches(y, x) }, [2]int{-1, 0}},
			} {
				var want []string
				for i := 0; i < n; i++ {
					if tc.memo[0] >= 0 {
						if tc.want(id(i), "") {
							want = append(want, id(i))
						}
						continue
					}
					for j := 0; j < n; j++ {
						if tc.want(id(i), id(j)) {
							want = append(want, id(i)+" "+id(j))
						}
					}
				}
				q, err := Parse(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				for _, naive := range []bool{false, true} {
					v, err := NewView(sn, lat, privilege.Public, plus.ModeSurrogate)
					if err != nil {
						t.Fatal(err)
					}
					plan, err := Compile(q, ViewStats(v), naive)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := run(context.Background(), plan, v, 0)
					if err != nil {
						t.Fatal(err)
					}
					var got []string
					for _, row := range rs.Rows {
						key := row[0].ID
						if len(row) == 2 {
							key += " " + row[1].ID
						}
						got = append(got, key)
					}
					// Row order follows the plan's binding order; the set is
					// what both modes owe.
					sort.Strings(got)
					sort.Strings(want)
					if !strEq(got, want) {
						t.Errorf("cyclic=%v seed %d naive=%v %s: %d rows, want %d:\n got %v\nwant %v",
							cyclic, seed, naive, tc.src, len(got), len(want), got, want)
					}
					// Naive runs the atoms in source order, so the closure
					// atom is a check there whatever the planner would do.
					if naive && tc.memo[0] >= 0 && (len(v.fwdReach) != tc.memo[0] || len(v.backReach) != tc.memo[1]) {
						t.Errorf("cyclic=%v seed %d %s: memoised %d forward and %d backward closures, want %v",
							cyclic, seed, tc.src, len(v.fwdReach), len(v.backReach), tc.memo)
					}
				}
			}
		}
	}
}

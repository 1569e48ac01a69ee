package core

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

func seedProvenance(t *testing.T, p *Provenance) {
	t.Helper()
	b := p.Backend()
	_, err := b.Apply(plus.Batch{
		Objects: []plus.Object{
			{ID: "src", Kind: plus.Data, Name: "raw feed"},
			{ID: "proc", Kind: plus.Invocation, Name: "secret analytic", Lowest: "Protected", Protect: "surrogate"},
			{ID: "out", Kind: plus.Data, Name: "derived table"},
		},
		Edges: []plus.Edge{
			{From: "src", To: "proc", Label: "input-to"},
			{From: "proc", To: "out", Label: "generated"},
		},
		Surrogates: []plus.SurrogateSpec{
			{ForID: "proc", ID: "proc'", Name: "an analytic", InfoScore: 0.4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProvenanceFacadeBothBackends(t *testing.T) {
	cases := []struct {
		name string
		opts ProvenanceOptions
	}{
		{"log", ProvenanceOptions{Path: ""}}, // patched below
		{"mem", ProvenanceOptions{}},
	}
	cases[0].opts.Path = filepath.Join(t.TempDir(), "prov.log")

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := OpenProvenance(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			seedProvenance(t, p)

			res, err := p.Lineage(context.Background(), plus.Request{Start: "out", Viewer: privilege.Public})
			if err != nil {
				t.Fatal(err)
			}
			if res.Account == nil || res.Account.Graph.NumNodes() == 0 {
				t.Fatal("empty lineage account")
			}

			cmp, err := p.CompareLineage(context.Background(), "out", privilege.Public)
			if err != nil {
				t.Fatal(err)
			}
			// The surrogate strategy must beat hide on path utility for a
			// public consumer of a protected ancestor (the paper's core
			// claim).
			if cmp.DeltaPathUtility() <= 0 {
				t.Errorf("surrogate - hide path utility = %v, want > 0", cmp.DeltaPathUtility())
			}

			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Lineage(context.Background(), plus.Request{Start: "out"}); !errors.Is(err, plus.ErrClosed) {
				t.Errorf("lineage after close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestProvenanceContextCancellation proves deadlines and cancellation
// reach both query paths through the facade: a pre-cancelled context must
// fail the lineage walk and the PLUSQL executor instead of running to
// completion.
func TestProvenanceContextCancellation(t *testing.T) {
	p, err := OpenProvenance(ProvenanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seedProvenance(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Lineage(ctx, plus.Request{Start: "out"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled lineage = %v, want context.Canceled", err)
	}
	if _, err := p.Query(ctx, `node(X)`, plusql.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled query = %v, want context.Canceled", err)
	}
	if _, err := p.CompareLineage(ctx, "out", privilege.Public); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled compare = %v, want context.Canceled", err)
	}
	// A live context still answers.
	if _, err := p.Lineage(context.Background(), plus.Request{Start: "out"}); err != nil {
		t.Errorf("live context lineage: %v", err)
	}
}

func TestProvenanceServerHealthz(t *testing.T) {
	p, err := OpenProvenance(ProvenanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seedProvenance(t, p)
	if p.Server() == nil {
		t.Fatal("nil server")
	}
	if p.Backend().NumObjects() != 3 || p.Backend().NumEdges() != 2 {
		t.Errorf("counts = %d objects %d edges, want 3, 2",
			p.Backend().NumObjects(), p.Backend().NumEdges())
	}
}

// TestProvenanceCacheStats drives the facade through a write-heavy mix
// and checks both caches serve incrementally: lineage answers survive
// disjoint writes, and PLUSQL views advance by deltas instead of full
// rebuilds.
func TestProvenanceCacheStats(t *testing.T) {
	p, err := OpenProvenance(ProvenanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seedProvenance(t, p)

	req := plus.Request{Start: "out", Direction: graph.Backward}
	if _, err := p.Lineage(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(context.Background(), `node(X)`, plusql.Options{}); err != nil {
		t.Fatal(err)
	}
	// Disjoint writes: the lineage entry stays cached, the view advances.
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("iso%d", i)
		if err := p.Backend().PutObject(plus.Object{ID: id, Kind: plus.Data, Name: id}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Lineage(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Query(context.Background(), `node(X)`, plusql.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := p.CacheStats()
	if st.Lineage.Hits != 3 || st.Lineage.DeltaEvictions != 0 {
		t.Errorf("lineage stats = %+v, want 3 hits and no evictions from disjoint writes", st.Lineage)
	}
	if st.Views.Advanced != 3 || st.Views.FullBuilds != 1 {
		t.Errorf("view stats = %+v, want 3 advances over 1 full build", st.Views)
	}

	// A write inside the lineage closure evicts that answer.
	if err := p.Backend().PutObject(plus.Object{ID: "src", Kind: plus.Data, Name: "src v2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lineage(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.Lineage.DeltaEvictions != 1 {
		t.Errorf("lineage evictions = %d, want 1 after closure write", st.Lineage.DeltaEvictions)
	}
}

func TestProvenanceQuery(t *testing.T) {
	p, err := OpenProvenance(ProvenanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seedProvenance(t, p)

	// Public: the protected analytic's incidences contract, so its
	// ancestry collapses to a surrogate edge src -> out and "proc" can
	// never be bound.
	rs, err := p.Query(context.Background(), `ancestor*(X, "out")`, plusql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].ID != "src" {
		t.Errorf("Public ancestors of out = %+v, want [src]", rs.Rows)
	}
	rs, err = p.Query(context.Background(), `node(X)`, plusql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		if row[0].ID == "proc" {
			t.Error("policy leak: proc bound for Public viewer")
		}
	}

	// Protected sees the original.
	rs, err = p.Query(context.Background(), `ancestor*(X, "out"), kind(X, invocation)`, plusql.Options{Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].ID != "proc" {
		t.Errorf("Protected invocation ancestors = %+v, want [proc]", rs.Rows)
	}

	// Parse errors surface with positions through the facade.
	if _, err := p.Query(context.Background(), `nope(X)`, plusql.Options{}); err == nil {
		t.Error("unknown predicate accepted")
	}
}

func TestProvenanceServerServesQuery(t *testing.T) {
	p, err := OpenProvenance(ProvenanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seedProvenance(t, p)
	srv := httptest.NewServer(p.Server())
	defer srv.Close()

	resp, err := plusclient.New(srv.URL).Query(context.Background(), `ancestor*(X, "out")`, plusclient.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].ID != "src" {
		t.Errorf("HTTP query rows = %+v, want [src]", resp.Rows)
	}
}

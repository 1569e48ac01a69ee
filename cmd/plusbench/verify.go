package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// verifySamples is how many served answers are compared with a fresh,
// uncached computation at the end of every full run; at most 8 each are
// the workload's own lineage requests, its own PLUSQL requests and
// lineage of nodes it wrote.
const (
	verifySamples = 32
	verifyPerKind = 8
)

// maximalCheckNodes bounds the accounts VerifyMaximal runs on: it tests
// every node pair (38 ms at 150 nodes, 0.9 s at 570), so the depth-5
// closures of cold_lineage get the set comparison and VerifySound only.
const maximalCheckNodes = 200

// verifySample picks the requests to re-ask: the workload's own first
// lineage and PLUSQL requests, plus lineage of nodes the run wrote (their
// ancestors cross the new edges), topped up with generic depth-3 starts
// so every workload — even one that only writes — checks all 32.
func verifySample(cfg runConfig, written []string) []op {
	var lineage, queries []op
	next := cfg.Spec.Seq(cfg.Graph, 0)
	for i := 0; i < 2000 && (len(lineage) < verifyPerKind || len(queries) < verifyPerKind); i++ {
		switch o := next(); {
		case o.Class == clsLineage && len(lineage) < verifyPerKind:
			lineage = append(lineage, o)
		case o.Class == clsQuery && len(queries) < verifyPerKind:
			queries = append(queries, o)
		}
	}
	sample := append(lineage, queries...)
	for i, id := range written {
		if i == verifyPerKind {
			break
		}
		sample = append(sample, op{Class: clsLineage, Viewer: i % 2, Start: id, Depth: 3})
	}
	for i, s := range upperStarts("verify", cfg.Graph, cfg.VerifySamples) {
		if len(sample) >= cfg.VerifySamples {
			break
		}
		sample = append(sample, op{Class: clsLineage, Viewer: i % 2, Start: s, Depth: 3})
	}
	if len(sample) > cfg.VerifySamples {
		sample = sample[:cfg.VerifySamples]
	}
	return sample
}

// verifyStore checks a quiescent server against what it acknowledged
// and against a from-scratch recomputation: the store's totals equal the
// acknowledged ones; each sampled answer, as served (through every
// cache and incremental path the run exercised), equals the answer a
// fresh engine gives over a restored /v2/snapshot; and that fresh
// account is sound and maximally informative. It returns the problems
// found.
func verifyStore(ctx context.Context, base string, cfg runConfig, want acked, written []string) []string {
	var problems []string
	fail := func(format string, a ...interface{}) { problems = append(problems, fmt.Sprintf(format, a...)) }
	c := newClients(base)
	h, err := c[asPublic].Healthz(ctx)
	if err != nil {
		return []string{fmt.Sprintf("verify: healthz: %v", err)}
	}
	if err := want.matches(h); err != nil {
		fail("verify: %v", err)
	}

	snap, err := c[asProtected].Snapshot(ctx)
	if err != nil {
		return append(problems, fmt.Sprintf("verify: snapshot: %v", err))
	}
	lat, err := privilege.FromPairs(snap.Lattice)
	if err != nil {
		return append(problems, fmt.Sprintf("verify: lattice: %v", err))
	}
	replica, err := restore(snap)
	if err != nil {
		return append(problems, fmt.Sprintf("verify: restore snapshot: %v", err))
	}
	defer replica.Close()
	fresh := plus.NewEngine(replica, lat)
	freshQL := plusql.NewEngine(replica, lat)

	for _, o := range verifySample(cfg, written) {
		served, err := c.issue(ctx, o)
		if err != nil {
			fail("verify %s: %v", o.key(), err)
			continue
		}
		viewer := privilege.Predicate(viewerNames[o.Viewer])
		switch o.Class {
		case clsLineage:
			res, err := fresh.Lineage(plus.Request{Start: o.Start, Direction: graph.Backward, Depth: o.Depth, Viewer: viewer})
			if err != nil {
				fail("verify %s: fresh engine: %v", o.key(), err)
				continue
			}
			if got, want := lineageSet(served.lineage), accountSet(res.Account); got != want {
				fail("verify %s: served answer differs from a fresh engine's", o.key())
			}
			if err := account.VerifySound(res.Spec, res.Account); err != nil {
				fail("verify %s: unsound: %v", o.key(), err)
			}
			if len(res.Account.Graph.Nodes()) > maximalCheckNodes {
				continue
			}
			if err := account.VerifyMaximal(res.Spec, res.Account); err != nil {
				fail("verify %s: not maximal: %v", o.key(), err)
			}
		case clsQuery:
			rs, err := freshQL.QueryContext(ctx, o.Query, plusql.Options{Viewer: viewer})
			if err != nil {
				fail("verify %s: fresh engine: %v", o.key(), err)
				continue
			}
			if got, want := rowSet(served.query.Rows), rowSet(rs.Rows); got != want {
				fail("verify %s: served rows differ from a fresh engine's", o.key())
			}
		}
	}
	return problems
}

// restore materialises a snapshot payload as a local backend, as
// plusclient.Restore does, but in two batches: objects, then edges and
// surrogates. Batch validation looks up each edge endpoint that is not
// stored yet by scanning the batch's own objects, so Restore's single
// batch costs edges × objects — 8 s for this graph, 0.2 s this way.
func restore(snap *plusclient.SnapshotResponse) (*plus.MemBackend, error) {
	m := plus.NewMemBackend(0)
	if _, err := m.Apply(plus.Batch{Objects: snap.Objects}); err != nil {
		m.Close()
		return nil, err
	}
	if _, err := m.Apply(plus.Batch{Edges: snap.Edges, Surrogates: snap.Surrogates}); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// lineageSet and accountSet render a served answer and an account the
// same way: sorted node ids, then sorted from>to edges.
func lineageSet(r *plus.LineageResponse) string {
	var nodes, edges []string
	for _, n := range r.Nodes {
		nodes = append(nodes, n.ID)
	}
	for _, e := range r.Edges {
		edges = append(edges, e.From+">"+e.To)
	}
	return joinSorted(nodes) + "|" + joinSorted(edges)
}

func accountSet(a *account.Account) string {
	var nodes, edges []string
	for _, id := range a.Graph.Nodes() {
		nodes = append(nodes, string(id))
	}
	for _, e := range a.Graph.Edges() {
		edges = append(edges, string(e.From)+">"+string(e.To))
	}
	return joinSorted(nodes) + "|" + joinSorted(edges)
}

func rowSet(rows [][]plusql.Binding) string {
	var out []string
	for _, row := range rows {
		var ids []string
		for _, b := range row {
			ids = append(ids, b.ID)
		}
		out = append(out, strings.Join(ids, ","))
	}
	return joinSorted(out)
}

func joinSorted(s []string) string {
	sort.Strings(s)
	return strings.Join(s, " ")
}

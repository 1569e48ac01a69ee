package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/internal/workload"
	"repro/pkg/plusclient"
)

// ladderRounds is how many calls each rung's median is taken over.
const ladderRounds = 15

// rung is one timed public function of one layer.
type rung struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Calls int     `json:"calls"`
	Note  string  `json:"note,omitempty"`
}

// ladder times each layer's public functions directly, in process, on
// the same generated graph the workloads load: what one call costs with
// nothing else running. The workloads say where a request's time goes;
// the ladder says what each step would cost alone.
type ladder struct {
	rungs []rung
}

// timeMedian runs f ladderRounds times and records the median duration.
func (l *ladder) timeMedian(name, unit, note string, f func() error) error {
	scale := map[string]float64{"s": 1, "ms": 1e3, "us": 1e6}[unit]
	var v []float64
	for i := 0; i < ladderRounds; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v = append(v, time.Since(t).Seconds()*scale)
	}
	l.rungs = append(l.rungs, rung{Name: name, Value: median(v), Unit: unit, Calls: len(v), Note: note})
	return nil
}

func (l *ladder) add(name string, value float64, unit string, note string) {
	l.rungs = append(l.rungs, rung{Name: name, Value: value, Unit: unit, Calls: 1, Note: note})
}

func runLadder(stdout io.Writer, o options) error {
	g := graphParams{Nodes: o.nodes(), Seed: o.seed}
	lat := privilege.TwoLevel()
	l := &ladder{}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// plus.backend: bulk apply into each backend, the log's footprint and
	// its reopen.
	m := plus.NewMemBackend(0)
	defer m.Close()
	load := func(b plus.Backend) (records int, rate float64, err error) {
		t := time.Now()
		err = workload.GenerateLarge(g.config(), func(batch plus.Batch) error {
			records += batch.Len()
			_, err := b.Apply(batch)
			return err
		})
		return records, float64(records) / time.Since(t).Seconds(), err
	}
	records, rate, err := load(m)
	if err != nil {
		return err
	}
	l.add("plus.backend.apply.bulk_records_s.mem", rate, "1/s", fmt.Sprintf("%d records", records))
	logPath := filepath.Join(dir, "store.log")
	lb, err := plus.Open(logPath, plus.Options{})
	if err != nil {
		return err
	}
	_, rate, err = load(lb)
	if cerr := lb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.add("plus.backend.apply.bulk_records_s.log", rate, "1/s", "no fsync, as plusd without -sync")
	st, err := os.Stat(logPath)
	if err != nil {
		return err
	}
	l.add("plus.backend.log.bytes_per_record", float64(st.Size())/float64(records), "B", "")
	if err := l.timeMedian("plus.backend.log.reopen_s", "s", "", func() error {
		b, err := plus.Open(logPath, plus.Options{})
		if err != nil {
			return err
		}
		return b.Close()
	}); err != nil {
		return err
	}

	// plus.backend.snapshot: the clone the first read after a write pays,
	// and the per-revision cached one every later read gets.
	r := rng("ladder", g.Seed, 0)
	writes := 0
	write := func() error {
		writes++
		b := smallBatch(r, g, 9, writes, workload.LargeNodeID(r.Intn(g.Nodes)))
		_, err := m.Apply(plus.Batch{Objects: b.Objects, Edges: b.Edges, Surrogates: b.Surrogates})
		return err
	}
	var clone, cached []float64
	for i := 0; i < ladderRounds; i++ {
		if err := write(); err != nil {
			return err
		}
		t := time.Now()
		if _, err := m.Snapshot(); err != nil {
			return err
		}
		clone = append(clone, time.Since(t).Seconds()*1e3)
		t = time.Now()
		if _, err := m.Snapshot(); err != nil {
			return err
		}
		cached = append(cached, time.Since(t).Seconds()*1e6)
	}
	l.rungs = append(l.rungs,
		rung{Name: "plus.backend.snapshot.clone_ms", Value: median(clone), Unit: "ms", Calls: len(clone)},
		rung{Name: "plus.backend.snapshot.cached_us", Value: median(cached), Unit: "us", Calls: len(cached)})

	sn, err := m.Snapshot()
	if err != nil {
		return err
	}
	sn.FindByName(workload.LargeName(0)) // builds the index once
	k := 0
	if err := l.timeMedian("plus.index.find_by_name_us", "us", "", func() error {
		k++
		sn.FindByName(workload.LargeName(k % g.namePool()))
		return nil
	}); err != nil {
		return err
	}

	// account and measure: Generate over the whole store and over one
	// depth-5 closure, and the §4.1 utilities of that closure's account.
	whole, err := plus.SpecFromSnapshot(sn, lat)
	if err != nil {
		return err
	}
	var wholeAcct *account.Account
	if err := l.timeMedian("account.generate_whole_ms", "ms", "", func() error {
		wholeAcct, err = account.Generate(whole, privilege.Public)
		return err
	}); err != nil {
		return err
	}
	start := upperStarts("ladder", g, 1)[0]
	closure, err := plus.NewEngine(m, lat).Lineage(plus.Request{Start: start, Direction: graph.Backward, Depth: 5, Viewer: privilege.Public})
	if err != nil {
		return err
	}
	var closureAcct *account.Account
	closureSize := fmt.Sprintf("%d nodes", len(closure.Spec.Graph.Nodes()))
	if err := l.timeMedian("account.generate_closure_ms", "ms", closureSize, func() error {
		closureAcct, err = account.Generate(closure.Spec, privilege.Public)
		return err
	}); err != nil {
		return err
	}
	if err := l.timeMedian("measure.utilities_ms", "ms", closureSize, func() error {
		measure.Utilities(closure.Spec, closureAcct)
		return nil
	}); err != nil {
		return err
	}

	// account.Maintain per delta class, through the same
	// Capture → ApplyDelta → Maintain steps View.Advance takes.
	if err := l.maintain(m, g, whole, wholeAcct, sn.Revision()); err != nil {
		return err
	}

	// plusql.view: a from-scratch view, and advancing one by one write.
	sn, err = m.Snapshot()
	if err != nil {
		return err
	}
	var view *plusql.View
	if err := l.timeMedian("plusql.view.new_view_ms", "ms", "", func() error {
		view, err = plusql.NewView(sn, lat, privilege.Public, plus.ModeSurrogate)
		return err
	}); err != nil {
		return err
	}
	var advance []float64
	for i := 0; i < ladderRounds; i++ {
		if err := write(); err != nil {
			return err
		}
		next, err := m.Snapshot()
		if err != nil {
			return err
		}
		t := time.Now()
		v2, _, ok := view.Advance(next)
		if !ok {
			return fmt.Errorf("plusql.view.advance_ms: view refused to advance")
		}
		advance = append(advance, time.Since(t).Seconds()*1e3)
		view = v2
	}
	l.rungs = append(l.rungs, rung{Name: "plusql.view.advance_ms", Value: median(advance), Unit: "ms", Calls: len(advance), Note: "one small batch per advance"})

	// plus.server: JSON encoding of a depth-3 and a depth-5 reply.
	ts := httptest.NewServer(assembleServer(m))
	defer ts.Close()
	c := plusclient.New(ts.URL, plusclient.WithViewer("Public"))
	for _, depth := range []int{3, 5} {
		resp, err := c.Lineage(context.Background(), plusclient.LineageRequest{Start: start, Depth: depth})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("plus.server.encode_lineage_ms.d%d", depth)
		size := fmt.Sprintf("%d nodes, %d edges", len(resp.Nodes), len(resp.Edges))
		if err := l.timeMedian(name, "ms", size, func() error {
			_, err := json.Marshal(resp)
			return err
		}); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "layer ladder: %d nodes, seed %d, in process, median of %d calls\n", g.Nodes, g.Seed, ladderRounds)
	for _, r := range l.rungs {
		fmt.Fprintf(stdout, "%-40s %14.4f %-4s %s\n", r.Name, r.Value, r.Unit, r.Note)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Environment environment `json:"environment"`
		Rungs       []rung      `json:"rungs"`
	}{describeEnvironment(o), l.rungs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, "layers.json"), data, 0o644)
}

var nodeIDs = regexp.MustCompile(`n[0-9]{7}|m-[0-9]{4}`)

// maintain times account.Maintain on three delta classes — a new node
// under an existing parent, a new edge between existing nodes, and an
// existing public node turning protected — and counts the passes that
// fell back to a full regeneration, with their reasons.
func (l *ladder) maintain(m *plus.MemBackend, g graphParams, spec *account.Spec, acct *account.Account, rev uint64) error {
	r := rng("ladder/maintain", g.Seed, 0)
	rebuilt := map[string]int{}
	step := 0
	classes := []struct {
		name  string
		batch func() plus.Batch
	}{
		{"add_node", func() plus.Batch {
			id := fmt.Sprintf("m-%04d", step)
			return plus.Batch{
				Objects: []plus.Object{{ID: id, Kind: plus.Data, Name: "maintained"}},
				Edges:   []plus.Edge{{From: workload.LargeNodeID(r.Intn(g.Nodes)), To: id, Label: "input-to"}},
			}
		}},
		{"add_edge", func() plus.Batch {
			// From the lower half into the top ranks keeps the DAG ranked;
			// a source the target already has would be a duplicate edge.
			to := workload.LargeNodeID(g.Nodes - 1 - step)
			has := map[string]bool{}
			for _, e := range m.EdgesTo(to) {
				has[e.From] = true
			}
			from := workload.LargeNodeID(r.Intn(g.Nodes / 2))
			for has[from] {
				from = workload.LargeNodeID(r.Intn(g.Nodes / 2))
			}
			return plus.Batch{Edges: []plus.Edge{{From: from, To: to, Label: "derived"}}}
		}},
		{"protect_change", func() plus.Batch {
			// Public nodes of the lower half (the workloads' pools live
			// in the upper one): i%10 == 0 is never protected.
			id := workload.LargeNodeID(10 * (1 + step))
			return plus.Batch{
				Objects:    []plus.Object{{ID: id, Kind: plus.Data, Name: "now protected", Lowest: "Protected", Protect: "surrogate"}},
				Surrogates: []plus.SurrogateSpec{{ForID: id, ID: id + "~", Name: "redacted", InfoScore: 0.5}},
			}
		}},
	}
	for _, cl := range classes {
		var v []float64
		for i := 0; i < ladderRounds; i++ {
			step++
			if _, err := m.Apply(cl.batch()); err != nil {
				return fmt.Errorf("account.maintain %s: %w", cl.name, err)
			}
			sn, err := m.Snapshot()
			if err != nil {
				return err
			}
			delta, err := sn.DeltaSince(rev)
			if err != nil {
				return err
			}
			rev = sn.Revision()
			ad := plus.ClassifyDelta(spec, delta)
			pre := account.Capture(spec, ad)
			if err := plus.ApplyDelta(spec, delta); err != nil {
				return err
			}
			t := time.Now()
			next, st, err := account.Maintain(acct, spec, ad, pre)
			if err != nil {
				return err
			}
			v = append(v, time.Since(t).Seconds()*1e3)
			acct = next
			if st.Rebuilt {
				// Reasons name the node; group them by what happened to it.
				rebuilt[cl.name+": "+nodeIDs.ReplaceAllString(st.Reason, "N")]++
			}
		}
		l.rungs = append(l.rungs, rung{Name: "account.maintain_ms." + cl.name, Value: median(v), Unit: "ms", Calls: len(v)})
	}
	total, reasons := 0, []string{}
	for reason, n := range rebuilt {
		total += n
		reasons = append(reasons, fmt.Sprintf("%d× %s", n, reason))
	}
	sort.Strings(reasons)
	l.add("account.maintain.rebuilt", float64(total), "count", strings.Join(reasons, "; "))
	return nil
}

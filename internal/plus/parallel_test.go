package plus

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/privilege"
)

// wideDAG stores a 3-level fan-in DAG with frontiers `width` wide:
// `width` leaves feed `width` mid-level invocations (each leaf into two
// invocations), which all feed one sink. Returns the sink id.
func wideDAG(t testing.TB, b Backend, width int) string {
	t.Helper()
	var batch Batch
	for i := 0; i < width; i++ {
		batch.Objects = append(batch.Objects, Object{ID: fmt.Sprintf("leaf%03d", i), Kind: Data, Name: "leaf"})
	}
	for i := 0; i < width; i++ {
		id := fmt.Sprintf("mid%03d", i)
		o := Object{ID: id, Kind: Invocation, Name: "mid"}
		if i%4 == 0 {
			o.Lowest = "Protected"
			o.Protect = "surrogate"
		}
		batch.Objects = append(batch.Objects, o)
		batch.Edges = append(batch.Edges,
			Edge{From: fmt.Sprintf("leaf%03d", i), To: id, Label: "input-to"},
			Edge{From: fmt.Sprintf("leaf%03d", (i+1)%width), To: id, Label: "input-to"},
		)
	}
	batch.Objects = append(batch.Objects, Object{ID: "sink", Kind: Data, Name: "sink"})
	for i := 0; i < width; i++ {
		batch.Edges = append(batch.Edges, Edge{From: fmt.Sprintf("mid%03d", i), To: "sink", Label: "generated"})
	}
	if _, err := b.Apply(batch); err != nil {
		t.Fatal(err)
	}
	return "sink"
}

// TestSnapshotQueriesDoNotBlockWriters drives concurrent lineage reads
// and writes: with snapshot isolation both must make progress, and every
// answer must be internally consistent (each fetched edge's endpoints
// are in the fetched object set).
func TestSnapshotQueriesDoNotBlockWriters(t *testing.T) {
	for _, h := range conformanceHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			b, _ := h.open(t)
			sink := wideDAG(t, b, 100)
			en := NewEngine(b, privilege.TwoLevel())

			stop := make(chan struct{})
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := fmt.Sprintf("extra%05d", i)
					if err := b.PutObject(Object{ID: id, Kind: Data, Name: "extra"}); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()
			var readers sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for i := 0; i < 30; i++ {
						res, err := en.Lineage(Request{Start: sink, Direction: graph.Backward})
						if err != nil {
							t.Errorf("reader: %v", err)
							return
						}
						ids := map[graph.NodeID]bool{}
						for _, id := range res.Spec.Graph.Nodes() {
							ids[id] = true
						}
						for _, e := range res.Spec.Graph.Edges() {
							if !ids[e.From] || !ids[e.To] {
								t.Errorf("torn closure: edge %s->%s without endpoints", e.From, e.To)
								return
							}
						}
					}
				}()
			}
			// The writer runs for as long as the readers take, so reads
			// and writes genuinely overlap.
			readers.Wait()
			close(stop)
			<-writerDone
		})
	}
}

// closure is a fetched closure laid out flat: its object ids, edges and
// surrogate specs in fetch order.
type closure struct {
	ids        []string
	edges      []Edge
	surrogates []SurrogateSpec
	levels     int
}

// flatten concatenates the runs of a fetched closure.
func flatten(f *fetched) closure {
	return closure{slices.Concat(f.ids...), slices.Concat(f.edges...), slices.Concat(f.surrogates...), f.levels}
}

// dedupedWalk is the reference closure fetch: a sequential level BFS that
// copies the adjacency lists a direction asks for and dedupes every edge
// by its endpoints, whatever the direction.
func dedupedWalk(sn *Snapshot, req Request) closure {
	var f closure
	seen := map[string]bool{req.Start: true}
	edgeSeen := map[[2]string]bool{}
	f.ids = append(f.ids, req.Start)
	frontier := []string{req.Start}
	depth := 0
	for ; len(frontier) > 0 && (req.Depth == 0 || depth < req.Depth); depth++ {
		var next []string
		for _, cur := range frontier {
			var steps []Edge
			if req.Direction != graph.Backward {
				steps = append(steps, sn.Out(cur)...)
			}
			if req.Direction != graph.Forward {
				steps = append(steps, sn.In(cur)...)
			}
			for _, e := range steps {
				n := e.To
				if n == cur {
					n = e.From
				}
				if req.LabelFilter != "" && e.Label != req.LabelFilter {
					continue
				}
				if o, _ := sn.Object(n); req.KindFilter != "" && o.Kind != req.KindFilter {
					continue
				}
				if key := [2]string{e.From, e.To}; !edgeSeen[key] {
					edgeSeen[key] = true
					f.edges = append(f.edges, e)
				}
				if !seen[n] {
					seen[n] = true
					f.ids = append(f.ids, n)
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	f.levels = depth
	for _, id := range f.ids {
		f.surrogates = append(f.surrogates, sn.Surrogates(id)...)
	}
	return f
}

// TestFetchMatchesDedupedWalk: reading one-way adjacency in place and
// deduping edges only on undirected walks fetches exactly the closure of
// the walk that dedupes everything, in the same order — on all three
// directions, with and without a depth bound and a filter, over a graph
// with cycles and frontiers at least 64 wide.
func TestFetchMatchesDedupedWalk(t *testing.T) {
	b := NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	sink := wideDAG(t, b, 100)
	var cyc Batch
	for i := 0; i < 40; i++ {
		cyc.Objects = append(cyc.Objects, Object{ID: fmt.Sprintf("c%02d", i), Kind: ObjectKind([]string{"data", "invocation"}[i%2]), Name: "c"})
	}
	for i := 0; i < 40; i++ {
		for _, d := range []int{1, 7, 13} {
			cyc.Edges = append(cyc.Edges, Edge{From: fmt.Sprintf("c%02d", i), To: fmt.Sprintf("c%02d", (i+d)%40), Label: []string{"input-to", "generated"}[d%2]})
		}
	}
	cyc.Edges = append(cyc.Edges, Edge{From: "c00", To: sink, Label: "generated"})
	cyc.Surrogates = append(cyc.Surrogates, SurrogateSpec{ForID: "c05", ID: "c05'", InfoScore: 0.5})
	if _, err := b.Apply(cyc); err != nil {
		t.Fatal(err)
	}
	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(b, privilege.TwoLevel())
	for _, start := range []string{sink, "leaf003", "c10"} {
		for _, dir := range []graph.Direction{graph.Backward, graph.Forward, graph.Undirected} {
			for _, depth := range []int{0, 1, 3} {
				for _, filt := range []Request{{}, {LabelFilter: "generated"}, {KindFilter: Invocation}} {
					req := Request{Start: start, Direction: dir, Depth: depth, LabelFilter: filt.LabelFilter, KindFilter: filt.KindFilter}
					f, err := en.fetch(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := flatten(f), dedupedWalk(sn, req); !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v: fetched %d objects/%d edges/%d surrogates in %d levels, want %d/%d/%d in %d",
							req, len(got.ids), len(got.edges), len(got.surrogates), got.levels,
							len(want.ids), len(want.edges), len(want.surrogates), want.levels)
					}
				}
			}
		}
	}
}

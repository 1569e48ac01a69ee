package plus

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// These are the record table's tests, run over both backends from the
// conformance harness: a snapshot — its name postings included — stays
// exact for as long as it is held, whatever is written after it
// (sequentially against a model, concurrently against the change feed),
// and the first read after a write costs the same at any store size.

// tableModel is the reference copy of a store's live records.
type tableModel struct {
	objects    map[string]Object
	out, in    map[string][]Edge
	surrogates map[string][]SurrogateSpec
	edges      int
}

func newTableModel() *tableModel {
	return &tableModel{
		objects: map[string]Object{}, out: map[string][]Edge{}, in: map[string][]Edge{},
		surrogates: map[string][]SurrogateSpec{},
	}
}

// apply folds one accepted record, in change-feed form, into the model.
func (m *tableModel) apply(c Change) {
	switch c.Kind {
	case ChangeObject:
		m.objects[c.Object.ID] = c.Object
	case ChangeEdge:
		m.out[c.Edge.From] = append(m.out[c.Edge.From], c.Edge)
		m.in[c.Edge.To] = append(m.in[c.Edge.To], c.Edge)
		m.edges++
	case ChangeSurrogate:
		m.surrogates[c.Surrogate.ForID] = append(m.surrogates[c.Surrogate.ForID], c.Surrogate)
	}
}

func (m *tableModel) applyBatch(b Batch) {
	for _, o := range b.Objects {
		m.apply(Change{Kind: ChangeObject, Object: o})
	}
	for _, e := range b.Edges {
		m.apply(Change{Kind: ChangeEdge, Edge: e})
	}
	for _, sp := range b.Surrogates {
		m.apply(Change{Kind: ChangeSurrogate, Surrogate: sp})
	}
}

// clone deep-copies the model: the copy must not see later appends.
func (m *tableModel) clone() *tableModel {
	c := &tableModel{
		objects: maps.Clone(m.objects), out: map[string][]Edge{}, in: map[string][]Edge{},
		surrogates: map[string][]SurrogateSpec{}, edges: m.edges,
	}
	for id, es := range m.out {
		c.out[id] = slices.Clone(es)
	}
	for id, es := range m.in {
		c.in[id] = slices.Clone(es)
	}
	for id, sps := range m.surrogates {
		c.surrogates[id] = slices.Clone(sps)
	}
	return c
}

func sameObject(a, b Object) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.Name == b.Name && a.Lowest == b.Lowest &&
		a.Protect == b.Protect && maps.Equal(a.Features, b.Features)
}

func sameSurrogate(a, b SurrogateSpec) bool {
	return a.ForID == b.ForID && a.ID == b.ID && a.Name == b.Name && a.Lowest == b.Lowest &&
		a.InfoScore == b.InfoScore && maps.Equal(a.Features, b.Features)
}

// byFrom orders incoming edges: a compacted log replays them grouped by
// source, so their order under one target is not insertion order there.
func byFrom(es []Edge) []Edge {
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b Edge) int { return cmp.Compare(a.From, b.From) })
	return es
}

// check compares a snapshot with the model record for record. ids and
// names list every id and name the run ever used, so records stored after
// the snapshot are checked to be absent from it.
func (m *tableModel) check(t *testing.T, sn *Snapshot, ids, names []string, what string) {
	t.Helper()
	if sn.NumObjects() != len(m.objects) {
		t.Fatalf("%s: snapshot@%d has %d objects, the store had %d", what, sn.Revision(), sn.NumObjects(), len(m.objects))
	}
	all := sn.Objects()
	if len(all) != len(m.objects) {
		t.Fatalf("%s: snapshot@%d lists %d objects, the store had %d", what, sn.Revision(), len(all), len(m.objects))
	}
	for _, o := range all {
		if want, ok := m.objects[o.ID]; !ok || !sameObject(o, want) {
			t.Fatalf("%s: snapshot@%d lists %+v, the store had %+v (%v)", what, sn.Revision(), o, want, ok)
		}
	}
	for _, id := range ids {
		got, ok := sn.Object(id)
		want, stored := m.objects[id]
		if ok != stored || !sameObject(got, want) {
			t.Fatalf("%s: snapshot@%d object %s = %+v (%v), the store had %+v (%v)", what, sn.Revision(), id, got, ok, want, stored)
		}
		if !slices.Equal(sn.Out(id), m.out[id]) {
			t.Fatalf("%s: snapshot@%d out(%s) = %v, the store had %v", what, sn.Revision(), id, sn.Out(id), m.out[id])
		}
		if !slices.Equal(byFrom(sn.In(id)), byFrom(m.in[id])) {
			t.Fatalf("%s: snapshot@%d in(%s) = %v, the store had %v", what, sn.Revision(), id, sn.In(id), m.in[id])
		}
		if !slices.EqualFunc(sn.Surrogates(id), m.surrogates[id], sameSurrogate) {
			t.Fatalf("%s: snapshot@%d surrogates(%s) = %v, the store had %v", what, sn.Revision(), id, sn.Surrogates(id), m.surrogates[id])
		}
	}
	// Every posted id is one object the store had by that name, and the
	// postings of all names together count every named object.
	unposted := 0
	for _, o := range m.objects {
		if o.Name != "" {
			unposted++
		}
	}
	for _, name := range names {
		got := sn.FindByName(name)
		slices.Sort(got)
		for i, id := range got {
			if o, ok := m.objects[id]; !ok || o.Name != name || i > 0 && got[i-1] == id {
				t.Fatalf("%s: snapshot@%d FindByName(%q) = %v, the store had %s as %+v (%v)", what, sn.Revision(), name, got, id, o, ok)
			}
		}
		unposted -= len(got)
	}
	if unposted != 0 {
		t.Fatalf("%s: snapshot@%d posts %d named objects too few", what, sn.Revision(), unposted)
	}
}

// checkCounts compares the backend's O(1) counts and a fresh snapshot with
// the model.
func (m *tableModel) checkCounts(t *testing.T, b Backend, ids, names []string, what string) {
	t.Helper()
	if b.NumObjects() != len(m.objects) || b.NumEdges() != m.edges {
		t.Fatalf("%s: backend counts %d objects, %d edges; the model has %d, %d",
			what, b.NumObjects(), b.NumEdges(), len(m.objects), m.edges)
	}
	sn, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m.check(t, sn, ids, names, what)
}

type heldSnapshot struct {
	sn   *Snapshot
	want *tableModel
}

// conformSnapshotImmutable interleaves every kind of write with Snapshot
// calls, keeps every snapshot together with a deep copy of the store at
// that moment, and compares them all at the end — and, on a durable
// backend, again after Compact and against the reopened store.
func conformSnapshotImmutable(t *testing.T, h backendHarness) {
	b, path := h.open(t)
	rng := rand.New(rand.NewSource(16))
	model := newTableModel()
	var ids, names []string
	var held []heldSnapshot

	// Names come from a pool of 64, one per step in turn, so a posting
	// holds ids of many steps and a re-store moves an id out of a posting
	// that still holds others.
	for i := 0; i < 64; i++ {
		names = append(names, fmt.Sprintf("v%d", i))
	}
	randObject := func(id string, step int) Object {
		o := Object{ID: id, Kind: Data, Name: names[step%len(names)]}
		if rng.Intn(2) == 0 {
			o.Kind = Invocation
		}
		if rng.Intn(3) == 0 {
			o.Lowest, o.Protect = "Protected", "surrogate"
		}
		if rng.Intn(4) == 0 {
			o.Features = map[string]string{"owner": fmt.Sprintf("team%d", rng.Intn(3))}
		}
		return o
	}
	newID := func() string {
		id := fmt.Sprintf("o%04d", len(ids))
		ids = append(ids, id)
		return id
	}
	anyID := func() string { return ids[rng.Intn(len(ids))] }
	ids = append(ids, "o0000")
	first := randObject("o0000", 0)
	if err := b.PutObject(first); err != nil {
		t.Fatal(err)
	}
	model.apply(Change{Kind: ChangeObject, Object: first})

	for step := 1; step <= 2400; step++ {
		switch draw := rng.Intn(10); {
		case draw < 2: // a new object
			o := randObject(newID(), step)
			if err := b.PutObject(o); err != nil {
				t.Fatal(err)
			}
			model.apply(Change{Kind: ChangeObject, Object: o})
		case draw < 3: // a re-store
			o := randObject(anyID(), step)
			if err := b.PutObject(o); err != nil {
				t.Fatal(err)
			}
			model.apply(Change{Kind: ChangeObject, Object: o})
		case draw < 6: // an edge; duplicates and self edges are refused
			e := Edge{From: anyID(), To: anyID(), Label: "l"}
			if err := b.PutEdge(e); err == nil {
				model.apply(Change{Kind: ChangeEdge, Edge: e})
			}
		case draw < 7:
			sp := SurrogateSpec{ForID: anyID(), ID: fmt.Sprintf("s%d", step), Name: "anon", InfoScore: 0.5}
			if err := b.PutSurrogate(sp); err != nil {
				t.Fatal(err)
			}
			model.apply(Change{Kind: ChangeSurrogate, Surrogate: sp})
		case draw < 9: // a batch: new objects, a re-store, edges among and beyond them
			var batch Batch
			parent := anyID()
			for k := rng.Intn(3); k >= 0; k-- {
				o := randObject(newID(), step)
				batch.Objects = append(batch.Objects, o)
				batch.Edges = append(batch.Edges, Edge{From: parent, To: o.ID, Label: "b"})
				parent = o.ID
			}
			if rng.Intn(2) == 0 {
				batch.Objects = append(batch.Objects, randObject(anyID(), step))
			}
			if rng.Intn(2) == 0 {
				batch.Surrogates = append(batch.Surrogates, SurrogateSpec{ForID: parent, ID: fmt.Sprintf("s%d", step), InfoScore: 0.25})
			}
			if _, err := b.Apply(batch); err != nil {
				t.Fatal(err)
			}
			model.applyBatch(batch)
		default:
			sn, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, heldSnapshot{sn, model.clone()})
		}
	}
	checkHeld := func(what string) {
		t.Helper()
		for _, hs := range held {
			hs.want.check(t, hs.sn, ids, names, what)
		}
	}
	if len(held) < 200 {
		t.Fatalf("only %d snapshots held", len(held))
	}
	checkHeld("live")
	model.checkCounts(t, b, ids, names, "live")

	if c, ok := b.(compactor); ok {
		if err := c.Compact(); err != nil {
			t.Fatal(err)
		}
		checkHeld("after Compact")
		model.checkCounts(t, b, ids, names, "after Compact")
	}
	if h.reopen != nil {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		model.checkCounts(t, h.reopen(t, path), ids, names, "reopened")
		checkHeld("after reopen")
	}
}

// conformSnapshotImmutableConcurrent races writers on every stripe with
// snapshot takers and with readers walking (and probing the names of)
// snapshots that are already old, then rebuilds the store at each
// snapshot's revision from the change feed and compares. The writers'
// re-stores move ids out of the "first" posting while readers probe it.
func conformSnapshotImmutableConcurrent(t *testing.T, h backendHarness) {
	b, _ := h.open(t)
	const writers, perWriter = 4, 100
	names := []string{"batched", "first", "re-stored"}
	var (
		mu      sync.Mutex
		taken   []*Snapshot
		working sync.WaitGroup
		others  sync.WaitGroup
		stop    = make(chan struct{})
	)
	take := func() bool {
		sn, err := b.Snapshot()
		if err != nil {
			t.Error(err)
			return false
		}
		mu.Lock()
		taken = append(taken, sn)
		mu.Unlock()
		return true
	}
	for w := 0; w < writers; w++ {
		working.Add(1)
		go func(w int) {
			defer working.Done()
			id := func(i int) string { return fmt.Sprintf("w%d-%03d", w, i) }
			for i := 0; i < perWriter; i++ {
				var err error
				switch {
				case i%10 == 9: // a batch: two objects chained under the previous one
					_, err = b.Apply(Batch{
						Objects: []Object{{ID: id(i), Kind: Data, Name: "batched"}, {ID: id(i) + "b", Kind: Invocation}},
						Edges:   []Edge{{From: id(i - 1), To: id(i)}, {From: id(i), To: id(i) + "b"}},
					})
				default:
					if err = b.PutObject(Object{ID: id(i), Kind: Data, Name: "first"}); err == nil && i > 0 {
						err = b.PutEdge(Edge{From: id(i - 1), To: id(i), Label: "next"})
					}
				}
				if err == nil && i%7 == 6 {
					err = b.PutObject(Object{ID: id(i - 3), Kind: Data, Name: "re-stored", Lowest: "Protected"})
				}
				if err == nil && i%13 == 12 {
					err = b.PutSurrogate(SurrogateSpec{ForID: id(i), ID: id(i) + "~", InfoScore: 0.5})
				}
				if err != nil {
					t.Errorf("writer %d step %d: %v", w, i, err)
					return
				}
				// The run lasts a few scheduler slices, in which the takers
				// below catch a handful of revisions; writers take some too.
				if i%3 == 0 && !take() {
					return
				}
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		others.Add(2)
		go func() { // takers
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !take() {
					return
				}
				runtime.Gosched()
			}
		}()
		go func(g int) { // readers of old snapshots
			defer others.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				var sn *Snapshot
				if len(taken) > 0 {
					sn = taken[rng.Intn(len(taken))]
				}
				mu.Unlock()
				if sn == nil {
					runtime.Gosched()
					continue
				}
				objects := sn.Objects()
				if len(objects) != sn.NumObjects() {
					t.Errorf("snapshot@%d lists %d objects, counts %d", sn.Revision(), len(objects), sn.NumObjects())
					return
				}
				for _, o := range objects {
					for _, e := range sn.Out(o.ID) {
						if _, ok := sn.Object(e.To); !ok {
							t.Errorf("snapshot@%d: edge %s->%s leads outside it", sn.Revision(), e.From, e.To)
							return
						}
					}
					_, _ = sn.In(o.ID), sn.Surrogates(o.ID)
				}
				for _, name := range names {
					for _, id := range sn.FindByName(name) {
						if o, ok := sn.Object(id); !ok || o.Name != name {
							t.Errorf("snapshot@%d: FindByName(%q) lists %s, named %q (%v)", sn.Revision(), name, id, o.Name, ok)
							return
						}
					}
				}
			}
		}(g)
	}
	working.Wait()
	close(stop)
	others.Wait()
	if t.Failed() {
		return
	}
	last, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	taken = append(taken, last)

	changes, err := b.ChangesSince(0)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, c := range changes {
		if c.Kind == ChangeObject {
			ids = append(ids, c.Object.ID)
		}
	}
	slices.SortFunc(taken, func(a, b *Snapshot) int { return cmp.Compare(a.Revision(), b.Revision()) })
	taken = slices.Compact(taken)
	if len(taken) < perWriter/3 {
		t.Fatalf("only %d distinct snapshots over %d revisions", len(taken), len(changes))
	}
	model, next := newTableModel(), 0
	for _, sn := range taken {
		for ; next < len(changes) && changes[next].Rev <= sn.Revision(); next++ {
			model.apply(changes[next])
		}
		model.check(t, sn, ids, names, "concurrent")
	}
	if b.NumObjects() != len(model.objects) || b.NumEdges() != model.edges {
		t.Errorf("backend counts %d objects, %d edges; the feed rebuilt %d, %d",
			b.NumObjects(), b.NumEdges(), len(model.objects), model.edges)
	}
}

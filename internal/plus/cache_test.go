package plus

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/privilege"
)

// cachedBody asks ce for req's lineage body and fails the test on an
// error.
func cachedBody(t testing.TB, ce *CachedEngine, req Request) []byte {
	t.Helper()
	body, err := ce.LineageBody(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sameBody reports whether two bodies are one slice: the same backing
// array and length, as a cache hit returns the body its miss encoded.
func sameBody(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// decodeBody decodes a lineage body into its wire struct.
func decodeBody(t testing.TB, body []byte) LineageResponse {
	t.Helper()
	var resp LineageResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("lineage body does not decode: %v\n%s", err, body)
	}
	return resp
}

// stripTiming cuts the trailing "timing" object off a lineage body: the
// one part of it that depends on when the answer was computed.
func stripTiming(body []byte) string {
	if i := bytes.LastIndex(body, []byte(`,"timing":{`)); i >= 0 {
		return string(body[:i])
	}
	return string(body)
}

func TestCachedEngineHitsAndInvalidation(t *testing.T) {
	en := lineageFixture(t)
	ce := NewCachedEngine(en)
	req := Request{Start: "report", Direction: graph.Backward, Viewer: privilege.Public}

	r1 := cachedBody(t, ce, req)
	r2 := cachedBody(t, ce, req)
	if !sameBody(r1, r2) {
		t.Error("second identical query should be served from cache")
	}
	if st := ce.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", st.Hits, st.Misses, st.Entries)
	}

	// Different viewer is a different entry.
	cachedBody(t, ce, Request{Start: "report", Direction: graph.Backward, Viewer: "Protected"})
	if st := ce.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}

	// A mutation outside the cached closures leaves them valid: the
	// delta-scoped refresh keeps both entries and keeps serving them.
	if err := en.store.PutObject(Object{ID: "unrelated", Kind: Data, Name: "unrelated"}); err != nil {
		t.Fatal(err)
	}
	if r3 := cachedBody(t, ce, req); !sameBody(r3, r1) {
		t.Error("disjoint write evicted an unaffected cached account")
	}
	if st := ce.Stats(); st.Entries != 2 {
		t.Errorf("entries after disjoint write = %d, want 2", st.Entries)
	}

	// A mutation touching the closure evicts exactly the affected
	// answers: re-storing an ancestor of report invalidates both viewers'
	// entries for it.
	if err := en.store.PutObject(Object{ID: "src", Kind: Data, Name: "raw feed v2"}); err != nil {
		t.Fatal(err)
	}
	if r4 := cachedBody(t, ce, req); sameBody(r4, r1) {
		t.Error("stale account served after a write inside its closure")
	}
	st := ce.Stats()
	if st.DeltaEvictions != 2 || st.Wipes != 0 {
		t.Errorf("delta evictions/wipes = %d/%d, want 2/0", st.DeltaEvictions, st.Wipes)
	}
}

func TestCachedEngineSensitivityChange(t *testing.T) {
	s, _ := openTemp(t)
	for _, o := range []Object{
		{ID: "a", Kind: Data, Name: "a"},
		{ID: "x", Kind: Data, Name: "x"},
		{ID: "b", Kind: Data, Name: "b"},
	} {
		if err := s.PutObject(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{{From: "a", To: "x"}, {From: "x", To: "b"}} {
		if err := s.PutEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	ce := NewCachedEngine(NewEngine(s, privilege.TwoLevel()))
	req := Request{Start: "b", Direction: graph.Backward, Viewer: privilege.Public}

	if r1 := decodeBody(t, cachedBody(t, ce, req)); !hasNode(r1, "x") {
		t.Fatal("x should be public initially")
	}

	// The provider reclassifies x: replace-on-put with a higher lowest.
	// The §7 claim: no manual view maintenance — the next query just sees
	// the new sensitivity.
	if err := s.PutObject(Object{ID: "x", Kind: Data, Name: "x", Lowest: "Protected"}); err != nil {
		t.Fatal(err)
	}
	r2 := decodeBody(t, cachedBody(t, ce, req))
	if hasNode(r2, "x") {
		t.Error("reclassified node still visible; stale cache?")
	}
	if !hasEdge(r2, "a", "b") {
		t.Errorf("connectivity not summarised after reclassification: %v", r2.Edges)
	}
}

func hasNode(resp LineageResponse, id string) bool {
	return slices.ContainsFunc(resp.Nodes, func(n LineageNode) bool { return n.ID == id })
}

func hasEdge(resp LineageResponse, from, to string) bool {
	return slices.ContainsFunc(resp.Edges, func(e LineageEdge) bool { return e.From == from && e.To == to })
}

func TestCachedEngineConcurrent(t *testing.T) {
	en := lineageFixture(t)
	ce := NewCachedEngine(en)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				viewer := privilege.Public
				if (i+j)%2 == 0 {
					viewer = "Protected"
				}
				if _, err := ce.LineageBody(context.Background(), Request{Start: "report", Direction: graph.Backward, Viewer: viewer}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := ce.Stats()
	if st.Hits+st.Misses != 160 {
		t.Errorf("hits+misses = %d, want 160", st.Hits+st.Misses)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want one per viewer", st.Entries)
	}
}

// chainCache loads the chain c000 -> c001 -> ... into a mem
// backend and fronts it with a cache budgeted at budget closure nodes. A
// backward depth-3 lineage from c<i> (i >= 3) is a 4-node closure.
func chainCache(t *testing.T, length, budget int) (*MemBackend, *CachedEngine) {
	t.Helper()
	m := NewMemBackend(0)
	t.Cleanup(func() { m.Close() })
	var b Batch
	for i := 0; i < length; i++ {
		b.Objects = append(b.Objects, Object{ID: chainID(i), Kind: Data, Name: "link"})
		if i > 0 {
			b.Edges = append(b.Edges, Edge{From: chainID(i - 1), To: chainID(i), Label: "input-to"})
		}
	}
	if _, err := m.Apply(b); err != nil {
		t.Fatal(err)
	}
	ce := NewCachedEngine(NewEngine(m, privilege.TwoLevel()))
	ce.budget = budget
	return m, ce
}

func chainID(i int) string { return fmt.Sprintf("c%03d", i) }

func chainReq(i int) Request {
	return Request{Start: chainID(i), Direction: graph.Backward, Depth: 3}
}

func TestCachedEngineBudgetBoundsNeverRepeatedRequests(t *testing.T) {
	const budget = 40
	_, ce := chainCache(t, 110, budget)
	// 100 never-repeated 4-node answers: ten times the budget.
	for i := 3; i < 103; i++ {
		if n := len(decodeBody(t, cachedBody(t, ce, chainReq(i))).Nodes); n != 4 {
			t.Fatalf("closure of %s has %d nodes, want 4", chainID(i), n)
		}
		if st := ce.Stats(); st.ClosureNodes > budget || st.Entries > budget/4 {
			t.Fatalf("after %d requests: %d closure nodes in %d entries, budget %d", i-2, st.ClosureNodes, st.Entries, budget)
		}
	}
	st := ce.Stats()
	if st.Entries != 10 || st.ClosureNodes != 40 || st.CapacityEvictions != 90 || st.Hits != 0 || st.Misses != 100 {
		t.Errorf("stats = %+v, want 10 entries, 40 nodes, 90 capacity evictions, 0/100 hits/misses", st)
	}
}

func TestCachedEngineHitRefreshesRecency(t *testing.T) {
	_, ce := chainCache(t, 20, 12) // room for three 4-node answers
	ask := func(i int) {
		t.Helper()
		cachedBody(t, ce, chainReq(i))
	}
	ask(4)
	ask(8)
	ask(12)
	ask(4)  // hit: 4 is now more recent than 8
	ask(16) // evicts 8, the oldest untouched entry
	if st := ce.Stats(); st.Hits != 1 || st.CapacityEvictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 hit, 1 capacity eviction, 3 entries", st)
	}
	ask(4)
	if st := ce.Stats(); st.Hits != 2 {
		t.Errorf("re-asked entry was evicted before the older untouched one: %+v", st)
	}
	ask(8)
	if st := ce.Stats(); st.Hits != 2 || st.Misses != 5 {
		t.Errorf("untouched oldest entry survived the eviction: %+v", st)
	}
}

func TestCachedEngineOversizedAnswerServedNotRetained(t *testing.T) {
	_, ce := chainCache(t, 10, 3)
	for round := 1; round <= 2; round++ {
		if n := len(decodeBody(t, cachedBody(t, ce, chainReq(5))).Nodes); n != 4 {
			t.Fatalf("oversized answer has %d account nodes, want 4", n)
		}
		st := ce.Stats()
		if st.Entries != 0 || st.ClosureNodes != 0 || st.CapacityEvictions != 0 || st.Hits != 0 || st.Misses != uint64(round) {
			t.Errorf("round %d: stats = %+v, want nothing retained and every ask a miss", round, st)
		}
	}
	// An answer that fits is still cached beside it.
	cachedBody(t, ce, Request{Start: chainID(5), Direction: graph.Backward, Depth: 1})
	if st := ce.Stats(); st.Entries != 1 || st.ClosureNodes != 2 {
		t.Errorf("stats = %+v, want the 2-node answer cached", st)
	}
}

func TestCachedEngineEvictionAndWipeKeepAccounting(t *testing.T) {
	m, ce := chainCache(t, 30, 1000)
	for _, i := range []int{5, 15, 25} {
		cachedBody(t, ce, chainReq(i))
	}
	cachedBody(t, ce, Request{Start: chainID(25), Direction: graph.Backward, Depth: 1})
	if st := ce.Stats(); st.Entries != 4 || st.ClosureNodes != 14 {
		t.Fatalf("stats = %+v, want 4 entries holding 14 nodes", st)
	}
	// Re-storing c013 touches only the closure of c015 (c012..c015).
	if err := m.PutObject(Object{ID: chainID(13), Kind: Data, Name: "link v2"}); err != nil {
		t.Fatal(err)
	}
	cachedBody(t, ce, chainReq(5))
	if st := ce.Stats(); st.Entries != 3 || st.ClosureNodes != 10 || st.DeltaEvictions != 1 || st.Hits != 1 {
		t.Fatalf("after delta: stats = %+v, want 3 entries, 10 nodes, 1 delta eviction, 1 hit", st)
	}
	// A burst longer than the retained feed leaves the scope unknown: the
	// wipe must zero the held count, and the cache must keep working.
	m.SetChangeHorizon(4)
	for i := 0; i < 10; i++ {
		if err := m.PutObject(Object{ID: fmt.Sprintf("burst%d", i), Kind: Data, Name: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	cachedBody(t, ce, chainReq(25))
	st := ce.Stats()
	if st.Wipes != 1 || st.Entries != 1 || st.ClosureNodes != 4 || st.CapacityEvictions != 0 {
		t.Errorf("after wipe: stats = %+v, want 1 wipe and only the re-asked 4-node answer held", st)
	}
}

// Concurrent readers over more distinct answers than the budget holds,
// with a writer evicting by delta: the held count must equal the sum over
// the live entries at every observation and never exceed the budget.
func TestCachedEngineBoundedConcurrent(t *testing.T) {
	const budget = 24
	m, ce := chainCache(t, 64, budget)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.PutObject(Object{ID: chainID(3 + i%60), Kind: Data, Name: fmt.Sprintf("v%d", i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 6; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for j := 0; j < 150; j++ {
				body, err := ce.LineageBody(context.Background(), chainReq(3+(r*7+j*5)%60))
				if err != nil {
					t.Error(err)
					return
				}
				var resp LineageResponse
				if err := json.Unmarshal(body, &resp); err != nil || len(resp.Nodes) != 4 {
					t.Errorf("closure has %d nodes, want 4 (%v)", len(resp.Nodes), err)
					return
				}
				if st := ce.Stats(); st.ClosureNodes > budget || st.ClosureNodes != 4*st.Entries {
					t.Errorf("stats = %+v: held count off or over budget %d", st, budget)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if st := ce.Stats(); st.Hits+st.Misses != 900 {
		t.Errorf("hits+misses = %d, want 900", st.Hits+st.Misses)
	}
}

// TestCachedBodyConcurrentHits has 8 goroutines ask one key while a
// writer applies batches inside and outside its closure. Every body a
// reader gets must be the fresh encoding, timing aside, at some revision
// between the one it read before asking and the one it read after; and
// no body may change after it was returned, although hits share one
// slice. The writer asks the key itself after each batch, so the answer
// it admits is cached when its next batch lands: an outside batch leaves
// it to be hit and an inside one evicts it, however the readers are
// scheduled.
func TestCachedBodyConcurrentHits(t *testing.T) {
	m, ce := chainCache(t, 12, lineageCacheBudget)
	en := NewEngine(m, privilege.TwoLevel())
	req := Request{Start: chainID(5), Direction: graph.Backward}.withDefaults()

	// fresh holds the fresh encoding at each revision the writer made.
	var mu sync.Mutex
	fresh := map[uint64]string{}
	record := func(rev uint64) {
		res, err := en.Lineage(req)
		if err != nil {
			t.Error(err)
			return
		}
		body, err := appendLineageBody(nil, req, res)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		fresh[rev] = stripTiming(body)
		mu.Unlock()
	}
	record(m.Revision())

	type served struct {
		before, after uint64
		body, copy    []byte
	}
	const readers, asks, writes = 8, 150, 60
	got := make([][]served, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range asks {
				before := m.Revision()
				body, err := ce.LineageBody(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				got[r] = append(got[r], served{before, m.Revision(), body, bytes.Clone(body)})
			}
		}()
	}
	// Only this goroutine writes, so the snapshot right after its Apply
	// is the revision Apply returned.
	for i := range writes {
		var b Batch
		if i%3 == 0 { // inside: c002 is an ancestor of c005, and its name is in the body
			b.Objects = []Object{{ID: chainID(2), Kind: Data, Name: fmt.Sprintf("link v%d", i)}}
		} else { // outside: c008 is a descendant
			b.Objects = []Object{{ID: chainID(8), Kind: Data, Name: fmt.Sprintf("link v%d", i)}}
		}
		rev, err := m.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		record(rev)
		if _, err := ce.LineageBody(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	for r := range got {
		for _, s := range got[r] {
			if !bytes.Equal(s.body, s.copy) {
				t.Fatalf("reader %d: a body changed after it was returned", r)
			}
			ok := false
			for rev := s.before; rev <= s.after && !ok; rev++ {
				ok = fresh[rev] == stripTiming(s.body)
			}
			if !ok {
				t.Fatalf("reader %d: body asked between revisions %d and %d is no fresh encoding there:\n%s", r, s.before, s.after, s.body)
			}
		}
	}
	if st := ce.Stats(); st.Hits == 0 || st.DeltaEvictions == 0 {
		t.Errorf("the run must exercise hits and delta evictions: %+v", st)
	}
}

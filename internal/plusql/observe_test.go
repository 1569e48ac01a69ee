package plusql

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plus"
	"repro/internal/privilege"
)

// obsQueryServer is testServer with the full observability stack: a
// registry, a record-everything slow-query ring, and Attach's engine
// instrumentation.
func obsQueryServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	be := exampleBackend(t)
	lat := privilege.TwoLevel()
	reg := obs.NewRegistry()
	o := plus.NewObservability(reg, obs.NewSlowLog(32, 0), nil)
	srv := plus.NewServer(plus.NewEngine(be, lat), plus.WithObservability(o))
	Attach(srv, NewEngine(be, lat))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, reg
}

// TestQueryPhaseTimingsAndSlowLog: a query's per-phase decomposition
// rides the response, the repeat hits the view cache, and the slow-query
// ring ties both to the request's trace ID.
func TestQueryPhaseTimingsAndSlowLog(t *testing.T) {
	ts, reg := obsQueryServer(t)
	const reqID = "feedface00002222"
	src := `ancestor*(X, "b"), kind(X, data)`

	first := postQuery(t, ts.URL, map[string]string{plus.HeaderRequestID: reqID}, QueryRequest{Query: src})
	if first.Phases == nil {
		t.Fatal("response missing phases block")
	}
	if first.Phases.ViewCacheHit {
		t.Error("first query claims a view-cache hit")
	}
	second := postQuery(t, ts.URL, nil, QueryRequest{Query: src})
	if second.Phases == nil || !second.Phases.ViewCacheHit {
		t.Errorf("second query phases = %+v, want view-cache hit", second.Phases)
	}

	sreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/slowlog", nil)
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var entries []obs.SlowEntry
	if err := json.NewDecoder(sresp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	var hit *obs.SlowEntry
	for i := range entries {
		if entries[i].RequestID == reqID {
			hit = &entries[i]
		}
	}
	if hit == nil {
		t.Fatalf("no slow-query entry for request id %q (got %+v)", reqID, entries)
	}
	if hit.Kind != "plusql" || hit.Query != src {
		t.Errorf("entry = %+v, want plusql %q", hit, src)
	}
	var phaseNames []string
	for _, p := range hit.Phases {
		phaseNames = append(phaseNames, p.Name)
	}
	if got := strings.Join(phaseNames, ","); got != "parse,view,plan,exec" {
		t.Errorf("phases = %s, want parse,view,plan,exec", got)
	}
	if hit.Rows != first.Stats.Rows {
		t.Errorf("entry rows = %d, want %d", hit.Rows, first.Stats.Rows)
	}

	var sawPhase, sawViews bool
	for _, f := range reg.Gather() {
		switch f.Name {
		case "plus_plusql_seconds":
			sawPhase = len(f.Series) > 0
		case "plus_query_view_hits_total":
			sawViews = len(f.Series) == 1 && f.Series[0].Value >= 1
		}
	}
	if !sawPhase || !sawViews {
		t.Errorf("registry missing plusql series: phase=%v views=%v", sawPhase, sawViews)
	}
}

// TestUninstrumentedEngineStaysQuiet: without Attach/SetObservability the
// engine must not pay for telemetry — and must still answer with phases.
func TestUninstrumentedEngineStaysQuiet(t *testing.T) {
	be := exampleBackend(t)
	e := NewEngine(be, privilege.TwoLevel())
	rs, err := e.Query(`ancestor*(X, "b")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Phases == nil {
		t.Fatal("uninstrumented result missing phases")
	}
	if e.obsHooks.Load() != nil {
		t.Error("fresh engine has telemetry hooks")
	}
	// Wiring an inert bundle (no registry, no slow log) keeps hooks off.
	e.SetObservability(plus.NewObservability(nil, nil, nil))
	if e.obsHooks.Load() != nil {
		t.Error("inert observability installed hooks")
	}
}

// TestViewRefreshCountedByOutcomeAndCause drives one refresh of each kind
// and reads them back from plus_plusql_view_refresh_total and the slow
// log: the cause is a class from a fixed set, never the id of the node
// that triggered it.
func TestViewRefreshCountedByOutcomeAndCause(t *testing.T) {
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(32, 0)
	e := NewEngine(b, privilege.TwoLevel())
	e.SetObservability(plus.NewObservability(reg, slow, nil))
	put := func(o plus.Object) {
		t.Helper()
		if err := b.PutObject(o); err != nil {
			t.Fatal(err)
		}
	}
	query := func() {
		t.Helper()
		if _, err := e.Query(`node(X)`, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	secret := plus.Object{ID: "secret-node-id", Kind: plus.Data, Name: "s"}
	put(secret)
	query() // full_build / cold_start
	if _, err := b.Apply(plus.Batch{
		Objects: []plus.Object{{ID: "w", Kind: plus.Data, Name: "w"}},
		Edges:   []plus.Edge{{From: secret.ID, To: "w", Label: "input-to"}},
	}); err != nil {
		t.Fatal(err)
	}
	query() // advanced / delta
	secret.Lowest, secret.Protect = "Protected", "hide"
	put(secret)
	query() // advance_rebuild / lowest_change
	query() // a hit: nothing counted
	b.SetChangeHorizon(2)
	for _, id := range []string{"x1", "x2", "x3", "x4"} {
		put(plus.Object{ID: id, Kind: plus.Data, Name: id})
	}
	query() // fallback / feed_behind, then full_build / feed_behind

	got := map[string]float64{}
	for _, f := range reg.Gather() {
		if f.Name != "plus_plusql_view_refresh_total" {
			continue
		}
		for _, s := range f.Series {
			var key []string
			for _, l := range s.Labels {
				key = append(key, l.Name+"="+l.Value)
				if strings.Contains(l.Value, secret.ID) {
					t.Errorf("label %s=%q names a node", l.Name, l.Value)
				}
			}
			got[strings.Join(key, ",")] = s.Value
		}
	}
	want := map[string]float64{
		"outcome=full_build,reason=cold_start":         1,
		"outcome=advanced,reason=delta":                1,
		"outcome=advance_rebuild,reason=lowest_change": 1,
		"outcome=fallback,reason=feed_behind":          1,
		"outcome=full_build,reason=feed_behind":        1,
	}
	if len(got) != len(want) {
		t.Errorf("refresh series = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("refresh series %s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}

	var outcomes []string
	var walked int
	for _, en := range slow.Entries() {
		outcomes = append(outcomes, en.ViewRefresh)
		if (en.ViewRefresh == "") != en.CacheHit {
			t.Errorf("slow-log entry %+v: a refresh outcome and a cache hit exclude each other", en)
		}
		// Only an advance walks: its entry says how far, so a slow view
		// phase is attributable.
		if advanced := en.ViewRefresh == outcomeAdvanced; (en.ViewWalked > 0) != advanced || (en.ViewPairs > 0) != advanced {
			t.Errorf("slow-log entry %+v: walked/pairs set on an advance and only there", en)
		}
		walked += en.ViewWalked
	}
	for _, f := range reg.Gather() {
		if f.Name != "plus_plusql_view_advance_walked" {
			continue
		}
		if len(f.Series) != 1 || f.Series[0].Count != 1 || f.Series[0].Sum != float64(walked) {
			t.Errorf("%s = %+v, want one observation of %d", f.Name, f.Series, walked)
		}
		walked = -1
	}
	if walked != -1 {
		t.Error("plus_plusql_view_advance_walked not exported")
	}
	if got := strings.Join(outcomes, ","); got != "full_build,advanced,advance_rebuild,,full_build" {
		t.Errorf("slow-log refresh outcomes = %q", got)
	}
}

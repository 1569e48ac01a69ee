package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/plus"
	"repro/pkg/plusclient"
)

// metricDef names one reported metric; BENCHMARK.json carries the same
// names and units, and a tier-1 test keeps the two lists equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the gated metrics. Every one is defined — and never
// zero — on every workload; per-class latencies, which are not, are
// per-layer metrics of the plusclient layer, and reopen, cold start and
// first PLUSQL answer, which only the log backend's set-up has all of,
// are per-layer metrics of the plusd process.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_records_s", "1/s"},
	{"ops_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

var (
	httpRoutes = []struct{ Layer, Route string }{
		{"lineage", "/v2/lineage"}, {"query", "/v2/query"}, {"objects", "/v2/objects/"}, {"batch", "/v2/batch"},
	}
	backendOps   = []string{"apply", "snapshot", "changes_since", "get_object"}
	enginePhases = []struct{ Metric, Phase string }{
		{"dbaccess", "dbAccess"}, {"build", "build"}, {"protect", "protect"}, {"total", "total"},
	}
)

// perLayer lists the traced run's metrics, layer by layer. Sources: (S)
// the delta of /v2/metrics and /v1/healthz across the measured phase,
// (R) the phase block of each reply, (P) /proc.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit})
		}
	}
	for _, c := range classNames {
		add("count", "plusclient."+c+".count")
		add("ms", "plusclient."+c+".p50_ms", "plusclient."+c+".p95_ms", "plusclient."+c+".overhead_ms_mean")
	}
	for _, r := range httpRoutes {
		add("count", "plus.server."+r.Layer+".count")
		add("ms", "plus.server."+r.Layer+".mean_ms")
		add("B", "plus.server."+r.Layer+".resp_bytes_mean")
	}
	add("ms", "plus.server.lineage.self_ms_mean")
	add("count", "plus.cache.hits", "plus.cache.misses", "plus.cache.delta_evictions", "plus.cache.wipes")
	add("ratio", "plus.cache.hit_ratio")
	add("count", "plus.engine.count")
	for _, p := range enginePhases {
		add("ms", "plus.engine."+p.Metric+"_ms_mean")
	}
	add("count", "plus.engine.bfs_levels_mean")
	for _, op := range backendOps {
		add("count", "plus.backend."+op+".count")
		add("ms", "plus.backend."+op+".mean_ms")
		add("s", "plus.backend."+op+".busy_s")
	}
	add("count", "plus.index.hits", "plus.index.misses", "plus.index.advances", "plus.index.rebuilds")
	add("ratio", "measure.path_utility_mean", "measure.node_utility_mean")
	add("count", "plusql.view.hits", "plusql.view.misses", "plusql.view.advanced",
		"plusql.view.advance_rebuilds", "plusql.view.full_builds", "plusql.view.fallbacks")
	add("ms", "plusql.view.view_ms_mean")
	add("us", "plusql.exec.parse_us_mean", "plusql.exec.plan_us_mean", "plusql.exec.exec_us_mean")
	add("ratio", "plusql.exec.examined_per_row")
	add("ms", "trace.self_ms_mean.lineage", "trace.self_ms_mean.query")
	add("s", "plusd.cpu_s", "plusd.first_query_s", "plusd.reopen_s", "plusd.cold_start_s")
	add("ratio", "loadgen.cpu_share")
	add("1/s", "loadgen.ops_s")
	return m
}

// minTailSamples is the least sample count a p95 is reported from: ten
// samples beyond the percentile.
const minTailSamples = 200

// percentile returns the q-quantile (0 < q < 1) of raw samples by the
// nearest-rank rule. It does not reorder its argument.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// The epsilon keeps 0.95×200 = 190.00000000000003 on rank 190.
	rank := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tail returns the p95 and true when the sample supports it.
func tail(samples []float64) (float64, bool) {
	if len(samples) < minTailSamples {
		return 0, false
	}
	return percentile(samples, 0.95), true
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histo is one summary series: observation count and summed value.
type histo struct {
	Count float64
	Sum   float64
}

// serverStats is one scrape of what the server reports about itself.
type serverStats struct {
	// Histos is keyed "family{label value}".
	Histos map[string]histo
	Health plus.HealthzResponse
}

func histoKey(family, label string) string { return family + "{" + label + "}" }

// scrape reads GET /v2/metrics?format=json and /v1/healthz.
func scrape(ctx context.Context, base string) (serverStats, error) {
	st := serverStats{Histos: map[string]histo{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/metrics?format=json", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("scrape metrics: %s", resp.Status)
	}
	var fams []obs.Family
	if err := json.NewDecoder(resp.Body).Decode(&fams); err != nil {
		return st, fmt.Errorf("scrape metrics: %w", err)
	}
	for _, f := range fams {
		for _, s := range f.Series {
			var labels []string
			for _, l := range s.Labels {
				labels = append(labels, l.Value)
			}
			st.Histos[histoKey(f.Name, strings.Join(labels, ","))] = histo{Count: float64(s.Count), Sum: s.Sum}
		}
	}
	st.Health, err = plusclient.New(base).Healthz(ctx)
	if err != nil {
		return st, fmt.Errorf("scrape healthz: %w", err)
	}
	return st, nil
}

// delta returns the observations family{label} gained between scrapes.
func (after serverStats) delta(before serverStats, family, label string) histo {
	a, b := after.Histos[histoKey(family, label)], before.Histos[histoKey(family, label)]
	return histo{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
}

// serverLayers turns two scrapes into the (S) per-layer metrics.
func serverLayers(before, after serverStats, out map[string]float64) {
	for _, r := range httpRoutes {
		lat := after.delta(before, "plus_http_request_seconds", r.Route)
		size := after.delta(before, "plus_http_response_bytes", r.Route)
		out["plus.server."+r.Layer+".count"] = lat.Count
		out["plus.server."+r.Layer+".mean_ms"] = ratio(lat.Sum*1e3, lat.Count)
		out["plus.server."+r.Layer+".resp_bytes_mean"] = ratio(size.Sum, size.Count)
	}
	httpLineage := after.delta(before, "plus_http_request_seconds", "/v2/lineage")
	for _, p := range enginePhases {
		h := after.delta(before, "plus_lineage_seconds", p.Phase)
		out["plus.engine."+p.Metric+"_ms_mean"] = ratio(h.Sum*1e3, h.Count)
		if p.Phase == "total" {
			out["plus.engine.count"] = h.Count
			// Cache hits never reach the engine, so the engine's time is
			// spread over every HTTP lineage request, not only the misses.
			out["plus.server.lineage.self_ms_mean"] = ratio((httpLineage.Sum-h.Sum)*1e3, httpLineage.Count)
		}
	}
	levels := after.delta(before, "plus_lineage_bfs_levels", "")
	out["plus.engine.bfs_levels_mean"] = ratio(levels.Sum, levels.Count)
	for _, op := range backendOps {
		h := after.delta(before, "plus_backend_op_seconds", op)
		out["plus.backend."+op+".count"] = h.Count
		out["plus.backend."+op+".mean_ms"] = ratio(h.Sum*1e3, h.Count)
		out["plus.backend."+op+".busy_s"] = h.Sum
	}
	for _, p := range []string{"parse", "plan", "exec"} {
		h := after.delta(before, "plus_plusql_seconds", p)
		out["plusql.exec."+p+"_us_mean"] = ratio(h.Sum*1e6, h.Count)
	}
	view := after.delta(before, "plus_plusql_seconds", "view")
	out["plusql.view.view_ms_mean"] = ratio(view.Sum*1e3, view.Count)

	d := func(a, b uint64) float64 { return float64(a) - float64(b) }
	if a, b := after.Health.LineageCache, before.Health.LineageCache; a != nil && b != nil {
		hits, misses := d(a.Hits, b.Hits), d(a.Misses, b.Misses)
		out["plus.cache.hits"], out["plus.cache.misses"] = hits, misses
		out["plus.cache.hit_ratio"] = ratio(hits, hits+misses)
		out["plus.cache.delta_evictions"] = d(a.DeltaEvictions, b.DeltaEvictions)
		out["plus.cache.wipes"] = d(a.Wipes, b.Wipes)
	}
	if a, b := after.Health.Index, before.Health.Index; a != nil && b != nil {
		out["plus.index.hits"], out["plus.index.misses"] = d(a.Hits, b.Hits), d(a.Misses, b.Misses)
		out["plus.index.advances"], out["plus.index.rebuilds"] = d(a.Advances, b.Advances), d(a.Rebuilds, b.Rebuilds)
	}
	if a, b := after.Health.QueryCache, before.Health.QueryCache; a != nil && b != nil {
		out["plusql.view.hits"], out["plusql.view.misses"] = d(a.Hits, b.Hits), d(a.Misses, b.Misses)
		out["plusql.view.advanced"] = d(a.Advanced, b.Advanced)
		out["plusql.view.advance_rebuilds"] = d(a.AdvanceRebuilds, b.AdvanceRebuilds)
		out["plusql.view.full_builds"] = d(a.FullBuilds, b.FullBuilds)
		out["plusql.view.fallbacks"] = d(a.Fallbacks, b.Fallbacks)
	}
}

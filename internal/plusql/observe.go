package plusql

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/plus"
)

// PhaseTimings is the per-phase cost decomposition of one query
// evaluation, in microseconds: parse (source text to AST), view
// (protected-view lookup/advance/build), plan (compile + reorder),
// exec (the backtracking join). It rides on ResultSet/QueryResponse so
// clients can see where a slow query spent its time without server
// access, and feeds the plus_plusql_seconds{phase} histograms and the
// slow-query log.
type PhaseTimings struct {
	ParseUS int64 `json:"parseUs"`
	ViewUS  int64 `json:"viewUs"`
	PlanUS  int64 `json:"planUs"`
	ExecUS  int64 `json:"execUs"`
	TotalUS int64 `json:"totalUs"`
	// ViewCacheHit reports the protected view was already at the current
	// revision, or got there by another query's refresh (an advance or
	// full build this query performed itself is a miss).
	ViewCacheHit bool `json:"viewCacheHit"`
}

// queryTiming carries the evaluation's raw durations between runTimed
// and the telemetry sink at nanosecond precision; PhaseTimings is its
// rounded-to-µs response rendering.
type queryTiming struct {
	parse, view, plan, exec, total time.Duration
	viewHit                        bool
	refresh                        viewRefresh // what this query did to its view
	rows                           int
}

func (t queryTiming) phases() *PhaseTimings {
	return &PhaseTimings{
		ParseUS:      t.parse.Microseconds(),
		ViewUS:       t.view.Microseconds(),
		PlanUS:       t.plan.Microseconds(),
		ExecUS:       t.exec.Microseconds(),
		TotalUS:      t.total.Microseconds(),
		ViewCacheHit: t.viewHit,
	}
}

// queryObs is the engine's telemetry bundle: the per-phase latency
// histograms, the view-refresh counters and the server's shared
// slow-query sink.
type queryObs struct {
	o       *plus.Observability
	phase   *obs.HistogramVec // parse / view / plan / exec / total
	refresh *obs.CounterVec   // outcome, reason
	walked  *obs.Histogram    // anchor-walk visits per localised advance
}

// SetObservability instruments the engine: per-phase latency histograms
// (plus_plusql_seconds{phase}), view refreshes by outcome and cause
// (plus_plusql_view_refresh_total{outcome,reason}; reason is one of a
// fixed set of classes, never a node id), the anchor-walk visits of each
// localised advance (plus_plusql_view_advance_walked) and slow-query
// capture through o's ring.
// Passing nil uninstruments. Attach wires this automatically; call it
// directly only for engines serving without a plus server.
func (e *Engine) SetObservability(o *plus.Observability) {
	if o == nil || (o.Registry() == nil && o.SlowQueryLog() == nil) {
		// Nothing would record: keep the hot path hook-free.
		e.obsHooks.Store(nil)
		return
	}
	e.obsHooks.Store(&queryObs{
		o: o,
		phase: o.Registry().HistogramVec("plus_plusql_seconds",
			"PLUSQL query latency by phase (parse/view/plan/exec/total).", obs.ScaleNanos, "phase"),
		refresh: o.Registry().CounterVec("plus_plusql_view_refresh_total",
			"Protected-view refreshes by outcome (advanced/advance_rebuild/full_build/fallback) and cause.",
			"outcome", "reason"),
		walked: o.Registry().Histogram("plus_plusql_view_advance_walked",
			"Anchor-walk (node, state) visits per localised view advance.", 1),
	})
}

// observe records one successful query evaluation's telemetry.
func (e *Engine) observe(ctx context.Context, text string, viewer string, t queryTiming) {
	h := e.obsHooks.Load()
	if h == nil {
		return
	}
	h.phase.With("parse").Observe(t.parse.Nanoseconds())
	h.phase.With("view").Observe(t.view.Nanoseconds())
	h.phase.With("plan").Observe(t.plan.Nanoseconds())
	h.phase.With("exec").Observe(t.exec.Nanoseconds())
	h.phase.With("total").Observe(t.total.Nanoseconds())
	if h.o.SlowQueryLog().Eligible(t.total) {
		h.o.RecordSlowQuery(obs.SlowEntry{
			RequestID: obs.RequestID(ctx),
			Kind:      "plusql",
			Query:     text,
			Viewer:    viewer,
			TotalUS:   t.total.Microseconds(),
			Phases: []obs.Phase{
				{Name: "parse", US: t.parse.Microseconds()},
				{Name: "view", US: t.view.Microseconds()},
				{Name: "plan", US: t.plan.Microseconds()},
				{Name: "exec", US: t.exec.Microseconds()},
			},
			CacheHit:    t.viewHit,
			ViewRefresh: t.refresh.outcome,
			ViewWalked:  t.refresh.walked,
			ViewPairs:   t.refresh.pairs,
			Rows:        t.rows,
		})
	}
}

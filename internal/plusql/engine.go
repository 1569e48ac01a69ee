package plusql

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plus"
	"repro/internal/privilege"
)

// clientError marks evaluation failures the caller caused (bad viewer or
// mode), as opposed to backend/materialisation faults; the HTTP layer
// maps the former to 400 and the latter to 5xx.
type clientError struct{ err error }

func (e clientError) Error() string { return e.err.Error() }
func (e clientError) Unwrap() error { return e.err }

// IsClientError reports whether err was caused by the request itself
// (syntax, unknown viewer, unknown mode) rather than by the server.
func IsClientError(err error) bool {
	var pe *ParseError
	var ce clientError
	return errors.As(err, &pe) || errors.As(err, &ce)
}

// Options tune one query evaluation.
type Options struct {
	// Viewer is the consumer's privilege-predicate; empty means Public.
	Viewer privilege.Predicate
	// Mode picks the protection generator backing the view: surrogate
	// (default) or hide.
	Mode plus.Mode
	// MaxRows caps the result size regardless of the query's own limit
	// (0 = no cap); servers use it to bound response bodies.
	MaxRows int
	// Naive disables atom reordering and predicate pushdown, evaluating
	// the query by scan-and-filter in source order. A benchmarking and
	// debugging knob, not a serving mode.
	Naive bool
	// Explain attaches the executed plan's rendering to the result.
	Explain bool
}

// Engine compiles and runs PLUSQL queries against a storage backend. It
// keeps one protected view per (viewer, mode) — a slot — so every query by
// the same class of consumer shares one account materialisation and one
// closure memo. Engine is safe for concurrent use.
//
// The whole-snapshot view is what makes arbitrary conjunctive queries
// policy-sound without per-binding checks. A write does not discard it:
// the first query to see the new revision takes the slot's write lock,
// pulls the change-feed delta and advances the view in place
// (View.Advance), at a cost proportional to the delta; queries that
// arrive meanwhile wait for that one refresh and share it. Queries hold
// the slot's read lock from lookup to their last row — rows are plain
// strings, nothing of the view escapes — so a refresh waits for the
// slot's in-flight queries instead of building beside them. A full
// rebuild happens only on a slot's first use, when the backend no longer
// retains the revision window, or when a delta fails to apply.
type Engine struct {
	store   plus.Backend
	lattice *privilege.Lattice

	// mu guards the slot table, the incremental switch and the counters;
	// it is never held while a view is built, advanced or queried.
	mu          sync.Mutex
	slots       map[slotKey]*viewSlot
	incremental bool
	stats       plus.QueryCacheHealth

	// obsHooks holds the engine's telemetry handles (SetObservability);
	// nil means uninstrumented. Atomic so wiring it after construction is
	// safe while queries are in flight.
	obsHooks atomic.Pointer[queryObs]
}

type slotKey struct {
	viewer privilege.Predicate
	mode   plus.Mode
}

// viewSlot holds the current view of one (viewer, mode). Queries read
// view under mu's read side; a refresh replaces or advances it under the
// write side. view is nil before the first build and after a refresh
// failed.
type viewSlot struct {
	mu   sync.RWMutex
	view *View
}

// NewEngine binds a backend to the lattice its privilege nicknames refer
// to.
func NewEngine(store plus.Backend, lattice *privilege.Lattice) *Engine {
	return &Engine{store: store, lattice: lattice, slots: map[slotKey]*viewSlot{}, incremental: true}
}

// Lattice returns the engine's privilege lattice.
func (e *Engine) Lattice() *privilege.Lattice { return e.lattice }

// CacheStats reports the view-cache counters.
func (e *Engine) CacheStats() plus.QueryCacheHealth {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// acquire returns the slot of (viewer, mode) READ-LOCKED with a view at or
// past the store's current revision; the caller queries s.view and then
// releases s.mu.RUnlock. r says what this lookup had to do to get there
// (the zero value for a hit).
func (e *Engine) acquire(viewer privilege.Predicate, mode plus.Mode) (s *viewSlot, r viewRefresh, err error) {
	sn, err := e.store.Snapshot()
	if err != nil {
		return nil, r, err
	}
	key := slotKey{viewer: viewer, mode: mode}
	e.mu.Lock()
	s = e.slots[key]
	if s == nil {
		s = &viewSlot{}
		e.slots[key] = s
	}
	e.mu.Unlock()

	s.mu.RLock()
	for s.view == nil || s.view.rev < sn.Revision() {
		// RWMutex cannot upgrade: trade the read side for the write side
		// and look again, since another query may have refreshed the view
		// while this one waited.
		s.mu.RUnlock()
		s.mu.Lock()
		if s.view == nil || s.view.rev < sn.Revision() {
			r, err = e.refresh(s, sn, viewer, mode)
		}
		s.mu.Unlock()
		if err != nil {
			return nil, r, err
		}
		s.mu.RLock()
	}
	e.mu.Lock()
	if r.outcome == "" {
		e.stats.Hits++
	} else {
		e.stats.Misses++
	}
	e.mu.Unlock()
	return s, r, nil
}

// Refresh outcomes, the outcome label of plus_plusql_view_refresh_total
// and the slow log's viewRefresh.
const (
	outcomeAdvanced       = "advanced"
	outcomeAdvanceRebuild = "advance_rebuild"
	outcomeFullBuild      = "full_build"
	outcomeFallback       = "fallback"
)

// viewRefresh is what one view lookup did to its view: the outcome ("" for
// a hit) and, for an advance, the account pass's cost in steps.
type viewRefresh struct {
	outcome       string
	walked, pairs int
}

// refresh brings the slot's view to snapshot sn: by advancing it in place
// when there is one, by a full build otherwise or when the advance is
// refused. It returns what it did; the caller holds s.mu's write side.
func (e *Engine) refresh(s *viewSlot, sn *plus.Snapshot, viewer privilege.Predicate, mode plus.Mode) (viewRefresh, error) {
	e.mu.Lock()
	incremental := e.incremental
	e.mu.Unlock()

	cause := causeColdStart
	if s.view != nil && incremental {
		_, info, ok := s.view.Advance(sn)
		if ok {
			outcome := outcomeAdvanced
			if info.AccountRebuilt {
				outcome = outcomeAdvanceRebuild
			} else if h := e.obsHooks.Load(); h != nil {
				h.walked.Observe(int64(info.Walked))
			}
			e.count(outcome, info.Cause)
			return viewRefresh{outcome: outcome, walked: info.Walked, pairs: info.Pairs}, nil
		}
		cause = info.Cause
		e.count(outcomeFallback, cause)
	}
	// A refused advance may have left the view half advanced, and a failed
	// build must not leave the old one behind for the next query either.
	if s.view != nil {
		s.view = nil
		e.mu.Lock()
		e.stats.Views--
		e.mu.Unlock()
	}
	v, err := NewView(sn, e.lattice, viewer, mode)
	if err != nil {
		return viewRefresh{}, err
	}
	s.view = v
	e.count(outcomeFullBuild, cause)
	return viewRefresh{outcome: outcomeFullBuild}, nil
}

// count records one refresh outcome, in the stats and the metrics.
func (e *Engine) count(outcome, cause string) {
	e.mu.Lock()
	switch outcome {
	case outcomeAdvanced:
		e.stats.Advanced++
	case outcomeAdvanceRebuild:
		e.stats.AdvanceRebuilds++
	case outcomeFullBuild:
		e.stats.FullBuilds++
		e.stats.Views++
	case outcomeFallback:
		e.stats.Fallbacks++
	}
	e.mu.Unlock()
	if h := e.obsHooks.Load(); h != nil {
		h.refresh.With(outcome, cause).Inc()
	}
}

// Query parses, plans and executes one PLUSQL query.
func (e *Engine) Query(src string, opts Options) (*ResultSet, error) {
	return e.QueryContext(context.Background(), src, opts)
}

// QueryContext is Query with cancellation and deadline propagation: the
// context is checked before the (possibly expensive) protected-view
// materialisation and periodically inside the executor's join loop.
func (e *Engine) QueryContext(ctx context.Context, src string, opts Options) (*ResultSet, error) {
	t0 := time.Now()
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.runTimed(ctx, q, opts, src, time.Since(t0))
}

// Run plans and executes an already-parsed query.
func (e *Engine) Run(q *Query, opts Options) (*ResultSet, error) {
	return e.RunContext(context.Background(), q, opts)
}

// RunContext is Run with cancellation; see QueryContext.
func (e *Engine) RunContext(ctx context.Context, q *Query, opts Options) (*ResultSet, error) {
	return e.runTimed(ctx, q, opts, "", 0)
}

// runTimed evaluates a parsed query, timing each phase; src is the
// original source text when the caller parsed it here ("" for
// pre-parsed queries, re-rendered only if the slow-query log wants it).
func (e *Engine) runTimed(ctx context.Context, q *Query, opts Options, src string, parseD time.Duration) (*ResultSet, error) {
	t0 := time.Now()
	viewer := opts.Viewer
	if viewer == "" {
		viewer = privilege.Public
	}
	mode := opts.Mode
	if mode == "" {
		mode = plus.ModeSurrogate
	}
	if mode != plus.ModeSurrogate && mode != plus.ModeHide {
		return nil, clientError{fmt.Errorf("plusql: unknown mode %q", mode)}
	}
	if !e.lattice.Known(viewer) {
		return nil, clientError{fmt.Errorf("plusql: unknown viewer predicate %q", viewer)}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plusql: %w", err)
	}
	tView := time.Now()
	slot, refreshed, err := e.acquire(viewer, mode)
	if err != nil {
		return nil, err
	}
	defer slot.mu.RUnlock()
	v := slot.view
	viewD := time.Since(tView)
	tPlan := time.Now()
	plan, err := Compile(q, ViewStats(v), opts.Naive)
	if err != nil {
		return nil, err
	}
	planD := time.Since(tPlan)
	tExec := time.Now()
	rs, err := run(ctx, plan, v, opts.MaxRows)
	if err != nil {
		return nil, err
	}
	t := queryTiming{
		parse:   parseD,
		view:    viewD,
		plan:    planD,
		exec:    time.Since(tExec),
		total:   parseD + time.Since(t0),
		viewHit: refreshed.outcome == "",
		refresh: refreshed,
		rows:    rs.Stats.Rows,
	}
	rs.Phases = t.phases()
	if opts.Explain {
		rs.Plan = plan.Explain()
	}
	if e.obsHooks.Load() != nil {
		if src == "" {
			src = q.String()
		}
		e.observe(ctx, src, string(viewer), t)
	}
	return rs, nil
}

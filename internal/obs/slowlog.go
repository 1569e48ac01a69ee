package obs

import (
	"sync"
	"time"
)

// Phase is one named timing inside a slow-query entry (parse, plan,
// execute, BFS fetch, protection...).
type Phase struct {
	Name string `json:"name"`
	US   int64  `json:"us"`
}

// SlowEntry is one recorded slow query.
type SlowEntry struct {
	// Time is when the query finished.
	Time time.Time `json:"time"`
	// RequestID is the middleware-assigned (or client-supplied) trace ID.
	RequestID string `json:"requestId,omitempty"`
	// Kind distinguishes the engines: "lineage" or "plusql".
	Kind string `json:"kind"`
	// Query is the query text (PLUSQL source) or a compact description
	// (lineage target and direction).
	Query string `json:"query"`
	// Viewer is the consumer's privilege-predicate.
	Viewer string `json:"viewer,omitempty"`
	// TotalUS is the full server-side duration in microseconds.
	TotalUS int64 `json:"totalUs"`
	// Phases are the per-phase timings in execution order.
	Phases []Phase `json:"phases,omitempty"`
	// Levels is the BFS depth reached (lineage queries).
	Levels int `json:"levels,omitempty"`
	// CacheHit reports whether a cached view/lineage answered the query.
	CacheHit bool `json:"cacheHit,omitempty"`
	// ViewRefresh is what a plusql query had to do to its protected view
	// before running: advanced, advance_rebuild or full_build (empty on a
	// cache hit).
	ViewRefresh string `json:"viewRefresh,omitempty"`
	// ViewWalked and ViewPairs are an advanced view's account-maintenance
	// cost in steps: anchor-walk (node, state) visits and candidate anchor
	// pairs examined. They say why a view phase was slow.
	ViewWalked int `json:"viewWalked,omitempty"`
	ViewPairs  int `json:"viewPairs,omitempty"`
	// Rows is the result row count (plusql queries).
	Rows int `json:"rows,omitempty"`
}

// SlowLog is a fixed-capacity ring of the most recent queries slower
// than a threshold. A zero threshold records everything (useful in
// tests); a nil *SlowLog records nothing, so handing an unconfigured
// slow log through the engines is free. Safe for concurrent use.
type SlowLog struct {
	threshold time.Duration // fixed at construction

	mu      sync.Mutex
	entries []SlowEntry
	next    int
	total   uint64
}

// NewSlowLog builds a ring keeping the last capacity entries at or above
// threshold (capacity defaults to 128 when <= 0).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &SlowLog{threshold: threshold, entries: make([]SlowEntry, 0, capacity)}
}

// Eligible reports whether a query of this duration would be recorded —
// engines use it to skip building the entry on the fast path.
func (l *SlowLog) Eligible(d time.Duration) bool {
	return l != nil && d >= l.threshold
}

// Record appends an entry if it clears the threshold, evicting the
// oldest when the ring is full. Returns whether it was recorded.
func (l *SlowLog) Record(e SlowEntry) bool {
	if l == nil {
		return false
	}
	if time.Duration(e.TotalUS)*time.Microsecond < l.threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if len(l.entries) < cap(l.entries) {
		l.entries = append(l.entries, e)
	} else {
		l.entries[l.next] = e
		l.next = (l.next + 1) % cap(l.entries)
	}
	l.total++
	return true
}

// Total counts entries ever recorded (including ones evicted from the
// ring).
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns the ring contents oldest-first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.entries))
	// When the ring has wrapped, next points at the oldest entry.
	if len(l.entries) == cap(l.entries) {
		out = append(out, l.entries[l.next:]...)
		out = append(out, l.entries[:l.next]...)
	} else {
		out = append(out, l.entries...)
	}
	return out
}

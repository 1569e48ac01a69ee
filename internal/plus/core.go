package plus

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// storeCore is the one storage engine under both backends: the record
// table (table.go, name postings included), the change feed, the revision
// counter, the per-revision snapshot cache and the notifier, all under one
// RWMutex. MemBackend is the core alone; LogBackend is the core plus a log
// that persist writes every batch to before the batch is stored.
//
// Every mutation takes one path, write: check against the stored state,
// persist, store the typed records, broadcast. PutObject, PutEdge and
// PutSurrogate are one-record batches on it. Served writes are whole
// batches (POST /v2/batch, follower apply) that need the whole store
// locked anyway, and readers go through Snapshot's lock-free fast path.
type storeCore struct {
	mu  sync.RWMutex
	tab *table

	// changes is the resident change feed, one ordered slice: changes[i]
	// was applied at revision base+i+1. It keeps at least the newest
	// horizon changes; a request older than base fails with
	// ErrTooFarBehind, the caller's cue to rebuild from a snapshot.
	changes []Change
	base    uint64
	horizon int

	// epoch identifies the revision numbering (Backend.Epoch); LogBackend's
	// Compact rotates it.
	epoch string

	// persist, when set, makes a checked batch durable before it is
	// stored. An error leaves the store untouched.
	persist func(*Batch) error

	// notifier wakes change-feed followers on every applied mutation
	// (Backend.Notify); it has its own lock.
	notifier

	// revision is atomic so Revision and the Snapshot fast path never take
	// mu; it only moves under the write lock.
	revision atomic.Uint64
	// snap caches the snapshot of the newest revision a reader asked at.
	snap atomic.Pointer[Snapshot]
	// snapMu serialises Snapshot's slow path, so readers arriving together
	// after a write share one snapshot. Acquired before mu.
	snapMu sync.Mutex
	closed atomic.Bool

	// ops, when set (NewObserveBackend), receives the latency of Apply,
	// GetObject, ChangesSince and Snapshot by operation; nil records
	// nothing.
	ops atomic.Pointer[obs.HistogramVec]
}

// DefaultChangeHorizon is how many recent changes a backend keeps resident
// for ChangesSince before readers are told to rebuild from a snapshot.
const DefaultChangeHorizon = 1 << 16

func (c *storeCore) init(epoch string) {
	c.tab = newTable()
	c.horizon = DefaultChangeHorizon
	c.epoch = epoch
}

func (c *storeCore) observeOps(h *obs.HistogramVec) { c.ops.Store(h) }

// timed records the latency of op since start, when the store is observed.
func (c *storeCore) timed(op string, start time.Time) {
	if h := c.ops.Load(); h != nil {
		h.With(op).ObserveSince(start)
	}
}

// write is the one write path. Under the write lock it runs check against
// the stored state, hands the batch to persist, stores its records and
// wakes followers. It returns the revision after the batch's last record,
// read before the lock is released, so no concurrent writer can have moved
// it: the exact change-feed position of this batch.
func (c *storeCore) write(b *Batch, check func() error) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return 0, ErrClosed
	}
	if err := check(); err != nil {
		return 0, err
	}
	if b.Len() == 0 {
		return c.revision.Load(), nil
	}
	if c.persist != nil {
		if err := c.persist(b); err != nil {
			return 0, err
		}
	}
	for _, o := range b.Objects {
		c.storeObject(o)
	}
	for _, e := range b.Edges {
		c.storeEdge(e)
	}
	for _, sp := range b.Surrogates {
		c.storeSurrogate(sp)
	}
	c.broadcast()
	return c.revision.Load(), nil
}

// storeObject, storeEdge and storeSurrogate put one checked record into the
// table and the feed. Callers hold the write lock (or own the core, as
// replay does). Objects and surrogates are stored shaped (shape.go): the
// table and the feed share the record's one graph-form feature map.
func (c *storeCore) storeObject(o Object) {
	o, keep := shapeObject(o)
	c.tab.putObject(c.tab.slot(o.ID), o, keep)
	c.record(Change{Kind: ChangeObject, keep: keep, Object: o})
}

func (c *storeCore) storeEdge(e Edge) {
	c.tab.putEdge(c.tab.slot(e.From), c.tab.slot(e.To), e)
	c.record(Change{Kind: ChangeEdge, Edge: e})
}

func (c *storeCore) storeSurrogate(sp SurrogateSpec) {
	sp, keep := shapeSurrogate(sp)
	c.tab.putSurrogate(c.tab.slot(sp.ForID), sp, keep)
	c.record(Change{Kind: ChangeSurrogate, keep: keep, Surrogate: sp})
}

// record appends ch to the feed at the next revision. Once the feed holds
// half as many changes again as the horizon, trimFeed shifts the newest
// horizon to the front in place: each write pays amortised O(1) copies and
// the backing array is reused.
func (c *storeCore) record(ch Change) {
	ch.Rev = c.revision.Add(1)
	c.changes = append(c.changes, ch)
	if h := c.horizon; len(c.changes) > h+h/2 {
		c.trimFeed(h)
	}
}

// trimFeed keeps the newest n changes and clears the vacated slots so the
// evicted records can be collected.
func (c *storeCore) trimFeed(n int) {
	drop := len(c.changes) - n
	if drop <= 0 {
		return
	}
	c.base += uint64(drop)
	copy(c.changes, c.changes[drop:])
	clear(c.changes[n:])
	c.changes = c.changes[:n]
}

// PutObject stores (or replaces) a provenance object.
func (c *storeCore) PutObject(o Object) error {
	_, err := c.write(&Batch{Objects: []Object{o}}, func() error { return validateObject(o) })
	return err
}

// PutEdge stores a provenance edge; both endpoints must exist.
func (c *storeCore) PutEdge(e Edge) error {
	_, err := c.write(&Batch{Edges: []Edge{e}}, func() error {
		switch {
		case e.From == e.To:
			return fmt.Errorf("plus: self edge %s rejected", e.From)
		case !c.tab.has(e.From):
			return fmt.Errorf("plus: edge %s->%s: %w (from)", e.From, e.To, ErrNotFound)
		case !c.tab.has(e.To):
			return fmt.Errorf("plus: edge %s->%s: %w (to)", e.From, e.To, ErrNotFound)
		case c.tab.hasEdge(e.From, e.To):
			return fmt.Errorf("plus: duplicate edge %s->%s", e.From, e.To)
		}
		return nil
	})
	return err
}

// PutSurrogate stores a surrogate version of an existing object.
func (c *storeCore) PutSurrogate(sp SurrogateSpec) error {
	_, err := c.write(&Batch{Surrogates: []SurrogateSpec{sp}}, func() error {
		if err := validateSurrogate(sp); err != nil {
			return err
		}
		if !c.tab.has(sp.ForID) {
			return fmt.Errorf("plus: surrogate for %s: %w", sp.ForID, ErrNotFound)
		}
		if c.tab.has(sp.ID) {
			return errSurrogateNamesObject(sp)
		}
		return nil
	})
	return err
}

// Apply validates the whole batch against the stored state plus the
// batch's own objects, then stores it as one write: validation failures
// leave the store untouched, and readers never observe a half-applied
// batch. Objects are stored before edges and surrogates.
func (c *storeCore) Apply(b Batch) (uint64, error) {
	defer c.timed("apply", time.Now())
	return c.write(&b, func() error { return b.validate(c.tab.has, c.tab.hasEdge) })
}

// GetObject fetches one object by id.
func (c *storeCore) GetObject(id string) (Object, error) {
	defer c.timed("get_object", time.Now())
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed.Load() {
		return Object{}, ErrClosed
	}
	b := c.tab.of(id)
	o, ok := b.objects[id]
	if !ok {
		return Object{}, fmt.Errorf("plus: %q: %w", id, ErrNotFound)
	}
	return b.postedObject(o), nil
}

// Objects returns every object (unspecified order).
func (c *storeCore) Objects() []Object {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tab.objectList(c.NumObjects())
}

// EdgesFrom returns the outgoing edges of an object, in insertion order.
func (c *storeCore) EdgesFrom(id string) []Edge {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Edge(nil), c.tab.of(id).out[id]...)
}

// EdgesTo returns the incoming edges of an object, in insertion order.
func (c *storeCore) EdgesTo(id string) []Edge {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Edge(nil), c.tab.of(id).in[id]...)
}

// SurrogatesOf returns the stored surrogate specs for an object.
func (c *storeCore) SurrogatesOf(id string) []SurrogateSpec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]SurrogateSpec(nil), c.tab.of(id).postedSurrogates(id)...)
}

// NumObjects / NumEdges report the table's own counts.
func (c *storeCore) NumObjects() int { return int(c.tab.objects.Load()) }
func (c *storeCore) NumEdges() int   { return int(c.tab.edges.Load()) }

// Revision returns a counter that increases with every stored record;
// equal revisions imply identical store contents (within one process).
func (c *storeCore) Revision() uint64 { return c.revision.Load() }

// Epoch identifies the store's revision numbering.
func (c *storeCore) Epoch() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// SetChangeHorizon resizes the resident change feed (minimum 0, which
// retains nothing and forces every delta reader to rebuild). Safe to call
// at any time; shrinking discards the oldest retained changes.
func (c *storeCore) SetChangeHorizon(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.horizon = max(n, 0)
	c.trimFeed(c.horizon)
}

// ChangeWindow reports the resident change-feed window; followers use it
// (via the healthz changeFeed block) to compute their lag against the
// oldest position the feed can still serve.
func (c *storeCore) ChangeWindow() FeedWindow {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return FeedWindow{Base: c.base, Depth: len(c.changes), Horizon: c.horizon}
}

// ChangesSince returns the changes applied after revision since, in
// revision order. A since older than the resident window fails with
// ErrTooFarBehind and the caller rebuilds from a snapshot.
func (c *storeCore) ChangesSince(since uint64) ([]Change, error) {
	defer c.timed("changes_since", time.Now())
	var out []Change
	err := c.walkChangesSince(since, math.MaxUint64, func(ch *Change) { out = append(out, ch.posted()) })
	return out, err
}

// walkChangesSince streams the resident changes with revision in
// (since, upTo] to visit in revision order, as stored, copying nothing.
// The pointer passed to visit is valid only for the duration of the call,
// which runs under the read lock. The window is checked before the first
// visit, so a failed walk has visited nothing.
func (c *storeCore) walkChangesSince(since, upTo uint64, visit func(*Change)) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed.Load() {
		return ErrClosed
	}
	rev := c.revision.Load()
	if since > rev {
		return errFutureRevision(since, rev)
	}
	if since < c.base {
		return ErrTooFarBehind
	}
	for r := since; r < min(upTo, rev); r++ {
		visit(&c.changes[r-c.base])
	}
	return nil
}

// Snapshot returns an immutable view of the store at its current revision,
// cached per revision: the fast path is one atomic load and never takes
// mu. The first reader after a write freezes the table's bucket pointers
// under the read lock — no record is copied — while other first readers
// wait on snapMu for its result.
func (c *storeCore) Snapshot() (*Snapshot, error) {
	defer c.timed("snapshot", time.Now())
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if sn := c.snap.Load(); sn != nil && sn.rev == c.revision.Load() {
		return sn, nil
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	rev := c.revision.Load()
	if sn := c.snap.Load(); sn != nil && sn.rev == rev {
		return sn, nil
	}
	sn := c.tab.freeze(c, rev)
	c.snap.Store(sn)
	return sn, nil
}

// IndexStats reports the table's name postings and probes.
func (c *storeCore) IndexStats() IndexStats { return c.tab.indexStats() }

// StoreStats reports the record table's snapshot and copy counters.
func (c *storeCore) StoreStats() StoreStats { return c.tab.stats() }

// Ping reports whether the store is open.
func (c *storeCore) Ping() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// shut marks the core closed and wakes parked followers so they observe
// it. Callers hold the write lock.
func (c *storeCore) shut() {
	c.closed.Store(true)
	c.snap.Store(nil)
	c.broadcast()
}

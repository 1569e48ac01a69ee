package plus

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// MemBackend is the volatile, serving-optimised storage engine: the
// record table (table.go) under a stripe of RWMutexes, so point reads and
// writes on different objects proceed concurrently instead of funnelling
// through one global lock. It offers the same contract as LogBackend minus
// durability (Size is 0 and contents die with the process), and the same
// snapshot isolation: lineage queries run over immutable revision-stamped
// snapshots that share the table's buckets. It implements Backend.
//
// Striping invariants: bucket i of the table is guarded by shard i mod
// len(shards). An object, its outgoing edges and its surrogates live in
// the bucket of its id, an edge's incoming copy in the bucket of its To
// id; an object's history and the change records whose primary id it is
// live in that bucket's shard. Cross-shard operations (PutEdge, Apply,
// Snapshot) take the shards they need in index order, so lock ordering is
// global and deadlock-free.
type MemBackend struct {
	tab    *table
	shards []memShard

	// horizon bounds each shard's change ring: the backend retains at
	// least the last horizon changes overall (more when writes spread
	// across shards). Guarded by holding every shard lock.
	horizon int

	// epoch is minted per instance: contents die with the process, so a
	// cursor from an earlier life must be refused, not resumed.
	epoch string

	// notifier wakes change-feed followers on every applied mutation
	// (Backend.Notify); it has its own lock, independent of the shards'.
	notifier

	// idx is the lazily-maintained secondary index (kind/name/attr ->
	// ids); see index.go. It has its own lock and is advanced by query
	// probes, never by the write path.
	idx *backendIndex

	revision atomic.Uint64
	snap     atomic.Pointer[Snapshot]
	// snapMu serialises the slow path of Snapshot, so readers arriving
	// together after a write share one snapshot instead of freezing one
	// each. Acquired before the shard locks.
	snapMu sync.Mutex
	closed atomic.Bool
}

type memShard struct {
	mu sync.RWMutex
	// history holds superseded object versions; snapshots never carry it,
	// so it stays outside the table.
	history map[string][]Object

	// changes is a bounded ring of this shard's recent mutations (a
	// record lands in the shard of its primary id: the object's, the
	// edge's From, the surrogate's ForID). ChangesSince merges the rings
	// by revision; a request older than the retained window fails with
	// ErrTooFarBehind — the "too far behind, rebuild from a snapshot"
	// escape hatch.
	changes changeRing
}

// changeRing is a fixed-capacity circular buffer of changes in revision
// order (per shard). Writers push under the shard's write lock.
type changeRing struct {
	buf  []Change
	next int // write position once the buffer is full
}

// push appends a change, evicting the oldest once capacity cap is reached.
func (r *changeRing) push(c Change, capacity int) {
	if capacity <= 0 {
		return
	}
	if len(r.buf) < capacity {
		r.buf = append(r.buf, c)
		return
	}
	if len(r.buf) > capacity {
		// Horizon was lowered: keep the newest entries.
		r.trim(capacity)
	}
	r.buf[r.next] = c
	r.next = (r.next + 1) % len(r.buf)
}

// trim shrinks the ring to the newest capacity entries, normalising the
// write position to 0.
func (r *changeRing) trim(capacity int) {
	ordered := r.ordered(nil)
	if len(ordered) > capacity {
		ordered = ordered[len(ordered)-capacity:]
	}
	r.buf = append([]Change(nil), ordered...)
	r.next = 0
}

// ordered appends the ring's contents in push order to out.
func (r *changeRing) ordered(out []Change) []Change {
	if r.next < len(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}

// at returns the change at logical position i (0 = oldest retained).
func (r *changeRing) at(i int) Change { return *r.ptrAt(i) }

// ptrAt returns a pointer to the change at logical position i, valid only
// while the shard lock is held (writers overwrite ring slots in place).
func (r *changeRing) ptrAt(i int) *Change {
	if r.next < len(r.buf) {
		return &r.buf[(r.next+i)%len(r.buf)]
	}
	return &r.buf[i]
}

// collect appends the ring entries newer than since to out. Revisions are
// monotone in logical order, so the matching entries are a suffix found by
// binary search — O(log n + matches) instead of a full ring copy.
func (r *changeRing) collect(since uint64, out []Change) []Change {
	n := len(r.buf)
	lo := sort.Search(n, func(i int) bool { return r.ptrAt(i).Rev > since })
	for i := lo; i < n; i++ {
		out = append(out, r.at(i))
	}
	return out
}

// DefaultMemShards is the shard count NewMemBackend uses when given 0.
const DefaultMemShards = 16

// DefaultMemChangeHorizon is the per-shard change-ring capacity: how many
// recent mutations each shard retains for ChangesSince before readers are
// told to rebuild from a snapshot.
const DefaultMemChangeHorizon = 4096

var _ Backend = (*MemBackend)(nil)

// NewMemBackend creates an empty in-memory backend with the given number
// of lock stripes (0 means DefaultMemShards).
func NewMemBackend(shards int) *MemBackend {
	if shards <= 0 {
		shards = DefaultMemShards
	}
	m := &MemBackend{
		tab:     newTable(),
		shards:  make([]memShard, shards),
		horizon: DefaultMemChangeHorizon,
		epoch:   newEpoch(),
		idx:     newBackendIndex(),
	}
	for i := range m.shards {
		m.shards[i].history = map[string][]Object{}
	}
	return m
}

// NumShards reports the stripe count.
func (m *MemBackend) NumShards() int { return len(m.shards) }

// shardOf returns the shard guarding bucket slot.
func (m *MemBackend) shardOf(slot int) *memShard { return &m.shards[slot%len(m.shards)] }

// rlock read-locks the shard of id's bucket and returns both; the caller
// RUnlocks the shard.
func (m *MemBackend) rlock(id string) (*bucket, *memShard) {
	slot := m.tab.slot(id)
	sh := m.shardOf(slot)
	sh.mu.RLock()
	return m.tab.at[slot], sh
}

// lockAll / runlockAll take every shard in index order; used by Apply and
// Snapshot, which need a globally consistent view.
func (m *MemBackend) lockAll() {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
}

func (m *MemBackend) unlockAll() {
	for i := range m.shards {
		m.shards[i].mu.Unlock()
	}
}

func (m *MemBackend) rlockAll() {
	for i := range m.shards {
		m.shards[i].mu.RLock()
	}
}

func (m *MemBackend) runlockAll() {
	for i := range m.shards {
		m.shards[i].mu.RUnlock()
	}
}

// storeObject, storeEdge and storeSurrogate put one validated, interned
// record into the table and the change ring of its primary id's shard.
// Callers hold the shards of every slot passed.
func (m *MemBackend) storeObject(slot int, o Object) {
	sh := m.shardOf(slot)
	if prev, replaced := m.tab.putObject(slot, o); replaced {
		sh.history[o.ID] = append(sh.history[o.ID], prev)
	}
	sh.changes.push(Change{Rev: m.revision.Add(1), Kind: ChangeObject, Object: o}, m.horizon)
}

func (m *MemBackend) storeEdge(from, to int, e Edge) {
	m.tab.putEdge(from, to, e)
	m.shardOf(from).changes.push(Change{Rev: m.revision.Add(1), Kind: ChangeEdge, Edge: e}, m.horizon)
}

func (m *MemBackend) storeSurrogate(slot int, sp SurrogateSpec) {
	m.tab.putSurrogate(slot, sp)
	m.shardOf(slot).changes.push(Change{Rev: m.revision.Add(1), Kind: ChangeSurrogate, Surrogate: sp}, m.horizon)
}

// PutObject stores (or replaces) a provenance object.
func (m *MemBackend) PutObject(o Object) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if err := validateObject(o); err != nil {
		return err
	}
	slot := m.tab.slot(o.ID)
	sh := m.shardOf(slot)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m.storeObject(slot, internObject(o))
	m.broadcast()
	return nil
}

// PutEdge stores a provenance edge; both endpoints must exist.
func (m *MemBackend) PutEdge(e Edge) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if e.From == e.To {
		return fmt.Errorf("plus: self edge %s rejected", e.From)
	}
	from, to := m.tab.slot(e.From), m.tab.slot(e.To)
	// Lock the two shards in index order (one lock when they collide).
	lo, hi := from%len(m.shards), to%len(m.shards)
	if lo > hi {
		lo, hi = hi, lo
	}
	m.shards[lo].mu.Lock()
	defer m.shards[lo].mu.Unlock()
	if hi != lo {
		m.shards[hi].mu.Lock()
		defer m.shards[hi].mu.Unlock()
	}
	if _, ok := m.tab.at[from].objects[e.From]; !ok {
		return fmt.Errorf("plus: edge %s->%s: %w (from)", e.From, e.To, ErrNotFound)
	}
	if _, ok := m.tab.at[to].objects[e.To]; !ok {
		return fmt.Errorf("plus: edge %s->%s: %w (to)", e.From, e.To, ErrNotFound)
	}
	if m.tab.at[from].hasEdge(e.From, e.To) {
		return fmt.Errorf("plus: duplicate edge %s->%s", e.From, e.To)
	}
	m.storeEdge(from, to, internEdge(e))
	m.broadcast()
	return nil
}

// PutSurrogate stores a surrogate version of an object.
func (m *MemBackend) PutSurrogate(sp SurrogateSpec) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if err := validateSurrogate(sp); err != nil {
		return err
	}
	slot := m.tab.slot(sp.ForID)
	sh := m.shardOf(slot)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := m.tab.at[slot].objects[sp.ForID]; !ok {
		return fmt.Errorf("plus: surrogate for %s: %w", sp.ForID, ErrNotFound)
	}
	m.storeSurrogate(slot, internSurrogate(sp))
	m.broadcast()
	return nil
}

// Apply stores a whole batch under all shard locks, returning the
// revision after the batch's last record: validation failures leave the
// backend untouched, and readers never observe a half-applied batch.
func (m *MemBackend) Apply(b Batch) (uint64, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	m.lockAll()
	defer m.unlockAll()
	if err := b.validate(m.tab.has, m.tab.hasEdge); err != nil {
		return 0, err
	}
	for _, o := range b.Objects {
		m.storeObject(m.tab.slot(o.ID), internObject(o))
	}
	for _, e := range b.Edges {
		m.storeEdge(m.tab.slot(e.From), m.tab.slot(e.To), internEdge(e))
	}
	for _, sp := range b.Surrogates {
		m.storeSurrogate(m.tab.slot(sp.ForID), internSurrogate(sp))
	}
	m.broadcast()
	// All shard locks are still held, so no concurrent writer can have
	// advanced the counter past this batch's last record.
	return m.revision.Load(), nil
}

// GetObject fetches one object by id.
func (m *MemBackend) GetObject(id string) (Object, error) {
	if m.closed.Load() {
		return Object{}, ErrClosed
	}
	b, sh := m.rlock(id)
	defer sh.mu.RUnlock()
	o, ok := b.objects[id]
	if !ok {
		return Object{}, fmt.Errorf("plus: %q: %w", id, ErrNotFound)
	}
	return o, nil
}

// History returns the superseded versions of an object, oldest first.
func (m *MemBackend) History(id string) []Object {
	_, sh := m.rlock(id)
	defer sh.mu.RUnlock()
	return append([]Object(nil), sh.history[id]...)
}

// Objects returns every object (unspecified order).
func (m *MemBackend) Objects() []Object {
	m.rlockAll()
	defer m.runlockAll()
	return m.tab.objectList(m.NumObjects())
}

// EdgesFrom returns the outgoing edges of an object, in insertion order.
func (m *MemBackend) EdgesFrom(id string) []Edge {
	b, sh := m.rlock(id)
	defer sh.mu.RUnlock()
	return append([]Edge(nil), b.out[id]...)
}

// EdgesTo returns the incoming edges of an object, in insertion order.
func (m *MemBackend) EdgesTo(id string) []Edge {
	b, sh := m.rlock(id)
	defer sh.mu.RUnlock()
	return append([]Edge(nil), b.in[id]...)
}

// SurrogatesOf returns the stored surrogate specs for an object.
func (m *MemBackend) SurrogatesOf(id string) []SurrogateSpec {
	b, sh := m.rlock(id)
	defer sh.mu.RUnlock()
	return append([]SurrogateSpec(nil), b.surrogates[id]...)
}

// NumObjects / NumEdges report the table's own counts.
func (m *MemBackend) NumObjects() int { return int(m.tab.objects.Load()) }
func (m *MemBackend) NumEdges() int   { return int(m.tab.edges.Load()) }

// Revision returns a counter that increases with every stored record.
func (m *MemBackend) Revision() uint64 { return m.revision.Load() }

// Epoch identifies this instance's revision numbering; volatile backends
// mint a fresh epoch per construction.
func (m *MemBackend) Epoch() string { return m.epoch }

// SetChangeHorizon resizes the per-shard change rings (minimum 0, which
// retains nothing and forces every delta reader to rebuild). Safe to call
// at any time; shrinking discards the oldest retained changes.
func (m *MemBackend) SetChangeHorizon(n int) {
	if n < 0 {
		n = 0
	}
	m.lockAll()
	defer m.unlockAll()
	m.horizon = n
	for i := range m.shards {
		m.shards[i].changes.trim(n)
	}
}

// ChangeHorizon reports the per-shard change-ring capacity.
func (m *MemBackend) ChangeHorizon() int {
	m.shards[0].mu.RLock()
	defer m.shards[0].mu.RUnlock()
	return m.horizon
}

// ChangeWindow reports the resident change-feed window across the
// per-shard rings. The base is conservative: a ring at capacity may have
// evicted, so the oldest position the merged feed is guaranteed to serve
// is just before the oldest entry of the fullest-aged ring. Depth is the
// total resident change count.
func (m *MemBackend) ChangeWindow() FeedWindow {
	m.rlockAll()
	defer m.runlockAll()
	w := FeedWindow{Horizon: m.horizon}
	for i := range m.shards {
		ring := &m.shards[i].changes
		w.Depth += len(ring.buf)
		if len(ring.buf) >= m.horizon && len(ring.buf) > 0 {
			// This ring may have evicted history: the feed can only
			// resume at or after its oldest retained entry.
			if base := ring.at(0).Rev - 1; base > w.Base {
				w.Base = base
			}
		}
	}
	return w
}

// ChangesSince merges the per-shard rings into the ordered record deltas
// applied after revision since. When part of that window has been evicted
// from a ring it fails with ErrTooFarBehind: the caller is too far behind
// the bounded feed and must rebuild from a fresh snapshot.
func (m *MemBackend) ChangesSince(since uint64) ([]Change, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	m.rlockAll()
	defer m.runlockAll()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	rev := m.revision.Load()
	if since > rev {
		return nil, errFutureRevision(since, rev)
	}
	var out []Change
	for i := range m.shards {
		out = m.shards[i].changes.collect(since, out)
	}
	slices.SortFunc(out, func(a, b Change) int { return cmp.Compare(a.Rev, b.Rev) })
	if err := checkContiguous(out, since, rev); err != nil {
		return nil, err
	}
	return out, nil
}

// walkChangesSince streams every retained change with revision in
// (since, upTo] to visit, shard by shard: no merging, no copying. Within
// one shard — and therefore per primary id — changes arrive in revision
// order; cross-shard order is unspecified. See changeWalker for the
// contract, including the partial-visit-then-ErrTooFarBehind hazard.
func (m *MemBackend) walkChangesSince(since, upTo uint64, visit func(*Change)) error {
	if m.closed.Load() {
		return ErrClosed
	}
	m.rlockAll()
	defer m.runlockAll()
	if m.closed.Load() {
		return ErrClosed
	}
	rev := m.revision.Load()
	if since > rev {
		return errFutureRevision(since, rev)
	}
	if upTo > rev {
		upTo = rev
	}
	var seen uint64
	for i := range m.shards {
		ring := &m.shards[i].changes
		n := len(ring.buf)
		lo := sort.Search(n, func(i int) bool { return ring.ptrAt(i).Rev > since })
		for j := lo; j < n; j++ {
			c := ring.ptrAt(j)
			if c.Rev > upTo {
				break
			}
			visit(c)
			seen++
		}
	}
	if seen != upTo-since {
		// Some shard evicted part of the window; the visits already made
		// are moot, the caller must rebuild.
		return ErrTooFarBehind
	}
	return nil
}

// Snapshot returns an immutable view of the backend at its current
// revision, cached per revision like LogBackend's. The slow path runs once
// per revision: it briefly read-locks every shard, which blocks writers,
// and freezes the table's bucket pointers — no record is copied — while
// other first readers wait on snapMu for its result; the fast path is a
// single atomic load.
func (m *MemBackend) Snapshot() (*Snapshot, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if sn := m.snap.Load(); sn != nil && sn.rev == m.revision.Load() {
		return sn, nil
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	m.rlockAll()
	defer m.runlockAll()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	// With every shard read-locked no writer can hold a shard lock, so
	// the revision and the table are stable while it is frozen.
	rev := m.revision.Load()
	if sn := m.snap.Load(); sn != nil && sn.rev == rev {
		return sn, nil
	}
	sn := m.tab.freeze(m, m.idx, rev)
	m.snap.Store(sn)
	return sn, nil
}

// IndexStats reports the secondary index's current state.
func (m *MemBackend) IndexStats() IndexStats { return m.idx.stats() }

// StoreStats reports the record table's snapshot and copy counters.
func (m *MemBackend) StoreStats() StoreStats { return m.tab.stats() }

// Size reports the durable footprint: always 0, the backend is volatile.
func (m *MemBackend) Size() int64 { return 0 }

// Ping reports whether the backend is open.
func (m *MemBackend) Ping() error {
	if m.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Close marks the backend closed; contents are discarded with the
// process. Double close is a no-op.
func (m *MemBackend) Close() error {
	m.closed.Store(true)
	m.snap.Store(nil)
	m.broadcast() // wake parked followers so they observe the close
	return nil
}

package plus

import (
	"fmt"

	"repro/internal/obs"
)

// This file defines the storage seam of the PLUS substrate. The original
// prototype was "one file, one lock": a single map-backed log index behind
// a global RWMutex that every lineage query held for its whole closure
// walk. Backend extracts that contract into an interface so durable
// (LogBackend) and serving-optimised (MemBackend) engines are
// interchangeable, and Snapshot gives queries an immutable,
// revision-stamped view of the store so readers never contend with
// writers.

// Backend is the storage contract the query engine, HTTP server and
// facade layers program against. All methods must be safe for concurrent
// use. Mutations must be atomic per call and must bump Revision exactly
// once per applied record, so equal revisions imply identical contents
// (within one process). The store keeps no caller's feature map: it
// shapes each object's and surrogate's features into the node's graph
// form once, at ingest (shape.go), and every read below hands records
// back as they were posted. A feature map a read returns may be shared
// with the store, so a caller must not write into it.
type Backend interface {
	// PutObject stores (or replaces) a provenance object.
	PutObject(o Object) error
	// PutEdge stores a provenance edge; both endpoints must exist.
	PutEdge(e Edge) error
	// PutSurrogate stores a surrogate version of an existing object.
	PutSurrogate(sp SurrogateSpec) error
	// Apply stores a whole batch with one lock acquisition; validation
	// failures must leave the backend untouched. It returns the revision
	// after the batch's last record, read while the apply still holds its
	// locks — the exact change-feed position of this batch, uncontaminated
	// by concurrent writers (the cursor POST /v2/batch hands back).
	Apply(b Batch) (uint64, error)

	// GetObject fetches one object by id (ErrNotFound if unknown).
	GetObject(id string) (Object, error)
	// Objects returns every live object (unspecified order).
	Objects() []Object
	// EdgesFrom / EdgesTo return an object's adjacency in insertion order.
	EdgesFrom(id string) []Edge
	EdgesTo(id string) []Edge
	// SurrogatesOf returns the stored surrogate specs for an object.
	SurrogatesOf(id string) []SurrogateSpec

	// NumObjects / NumEdges report live record counts.
	NumObjects() int
	NumEdges() int
	// Revision returns a counter that increases with every stored record.
	Revision() uint64
	// Epoch identifies the backend's revision numbering. Two calls return
	// the same value as long as revisions keep meaning the same prefixes
	// of history: a durable backend keeps its epoch across restarts, a
	// volatile backend mints a fresh one per instance, and rewriting
	// history (log compaction) rotates it. Cursors pair a revision with
	// the epoch it was issued under, so a resumed cursor from another
	// numbering is detected instead of silently misread.
	Epoch() string
	// Notify returns a channel that is closed after the next applied
	// mutation (or Close) — the no-poll wakeup hook for change-feed
	// followers. Consumers must arm (call Notify) BEFORE re-checking
	// Revision, then re-arm after each wakeup; a mutation landing
	// between the check and the wait has already closed the armed
	// channel, so wakeups are never missed. Spurious wakeups are
	// allowed.
	Notify() <-chan struct{}
	// ChangesSince returns the ordered record deltas applied after
	// revision since, up to the current revision (one Change per revision
	// bump, in revision order). Backends may bound how much history they
	// retain: a request past the horizon fails with ErrTooFarBehind, the
	// caller's cue to rebuild derived state from a fresh snapshot instead
	// of patching. A since beyond the current revision is an error.
	ChangesSince(since uint64) ([]Change, error)
	// Snapshot returns an immutable, revision-stamped view of the whole
	// store. The returned snapshot is stable forever: later writes bump
	// the revision and surface only in later snapshots. Implementations
	// cache the snapshot per revision and build it without copying records
	// (see table.go), so the first read after a write costs the same
	// whatever the store's size.
	Snapshot() (*Snapshot, error)

	// Size reports the durable footprint in bytes (0 for volatile
	// backends).
	Size() int64
	// Ping reports whether the backend is open and usable.
	Ping() error
	// Close releases the backend; subsequent mutations and reads fail
	// with ErrClosed.
	Close() error

	// The reporting methods behind the healthz blocks and the metrics
	// registry. ChangeWindow reports the resident change-feed window;
	// Wakeups counts notifier broadcasts that woke parked followers;
	// StoreStats counts snapshots built and buckets copied; IndexStats
	// reports the name postings.
	ChangeWindow() FeedWindow
	Wakeups() uint64
	StoreStats() StoreStats
	IndexStats() IndexStats

	// observeOps makes Apply, GetObject, ChangesSince and Snapshot record
	// their latency into h (NewObserveBackend).
	observeOps(h *obs.HistogramVec)
	// hasObject reports whether id is stored, untimed and copying nothing.
	hasObject(id string) bool
}

// Snapshot is an immutable point-in-time view of a backend: a frozen copy
// of the record table's bucket pointers (table.go). The buckets it points
// at are never written again — a later write copies its bucket first — so
// a snapshot stays exact for as long as it is held and shares every
// bucket no write has landed in since with the live table and with the
// snapshots before and after it.
type Snapshot struct {
	bucketSet
	rev     uint64
	objects int // live object count at rev

	// source is the store the snapshot was taken of: DeltaSince reads its
	// change feed, and FindByName counts its probes in its table.
	source *storeCore
}

// Revision reports the backend revision this snapshot was taken at.
func (sn *Snapshot) Revision() uint64 { return sn.rev }

// NumObjects reports how many objects the snapshot holds.
func (sn *Snapshot) NumObjects() int { return sn.objects }

// Object looks up one object, as it was posted.
func (sn *Snapshot) Object(id string) (Object, bool) {
	b := sn.of(id)
	o, ok := b.objects[id]
	if !ok {
		return Object{}, false
	}
	return b.postedObject(o), true
}

// stored looks up one object as the store keeps it (shape.go): its
// Features is the graph form, shared with the store.
func (sn *Snapshot) stored(id string) (Object, bool) {
	o, ok := sn.of(id).objects[id]
	return o, ok
}

// Objects returns every object in the snapshot, as posted, in unspecified
// order.
func (sn *Snapshot) Objects() []Object { return sn.objectList(sn.objects) }

// Out returns the outgoing edges of an object. The slice is shared with
// the snapshot and must not be mutated.
func (sn *Snapshot) Out(id string) []Edge { return sn.of(id).out[id] }

// In returns the incoming edges of an object. The slice is shared with
// the snapshot and must not be mutated.
func (sn *Snapshot) In(id string) []Edge { return sn.of(id).in[id] }

// Surrogates returns the surrogate specs of an object, as posted. The
// slice may be shared with the snapshot and must not be mutated.
func (sn *Snapshot) Surrogates(id string) []SurrogateSpec { return sn.of(id).postedSurrogates(id) }

// storedSurrogates returns the surrogate specs of an object as the store
// keeps them, in a slice shared with the snapshot.
func (sn *Snapshot) storedSurrogates(id string) []SurrogateSpec { return sn.of(id).surrogates[id] }

// validateObject is the shared object-shape check every backend applies
// before accepting a record.
func validateObject(o Object) error {
	if o.ID == "" {
		return fmt.Errorf("plus: object with empty id")
	}
	if o.Kind != Data && o.Kind != Invocation {
		return fmt.Errorf("plus: object %s has unknown kind %q", o.ID, o.Kind)
	}
	if o.Protect != "" && o.Protect != string(ModeHide) && o.Protect != string(ModeSurrogate) {
		return fmt.Errorf("plus: object %s has unknown protect mode %q", o.ID, o.Protect)
	}
	return nil
}

// validateSurrogate is the shared surrogate-shape check.
func validateSurrogate(sp SurrogateSpec) error {
	if sp.ID == "" || sp.ID == sp.ForID {
		return fmt.Errorf("plus: surrogate for %s has bad id %q", sp.ForID, sp.ID)
	}
	if sp.InfoScore < 0 || sp.InfoScore > 1 {
		return fmt.Errorf("plus: surrogate %s infoScore %v out of [0,1]", sp.ID, sp.InfoScore)
	}
	return nil
}

// errSurrogateNamesObject refuses a surrogate whose id is an object's: in
// a protected account it would stand where that object stands, and the
// two would merge into one node.
func errSurrogateNamesObject(sp SurrogateSpec) error {
	return fmt.Errorf("plus: surrogate %s for %s names an object", sp.ID, sp.ForID)
}

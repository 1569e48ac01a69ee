// Package plus reimplements the substrate the paper evaluated on: the
// PLUS provenance prototype ("PLUS: Synthesizing privacy, lineage,
// uncertainty and security", ICDE Workshops 2008). It provides a durable
// provenance store for lineage DAGs — data objects, process invocations
// and the edges between them — together with a privilege-aware lineage
// query engine that answers path-traversal queries ("what contributed to
// this data?") with protected accounts, and an HTTP server/client pair.
//
// Storage is pluggable behind the Backend interface. LogBackend is the
// durable engine: a single append-only log file where each record is
// length-prefixed, type-tagged and CRC-guarded; the in-memory record table
// is rebuilt by scanning the log on open, and a torn tail from a crashed
// writer is detected and truncated. This is deliberately the classical
// minimal write-ahead design: the paper's Figure 10 experiment decomposes
// query cost into DB access, graph build and protection, and this engine
// reproduces that decomposition honestly. MemBackend (membackend.go) is
// the volatile, lock-striped engine for read-heavy serving. Both keep
// their records in the one copy-on-write table of table.go and hand
// queries immutable revision-stamped snapshots that share its buckets, so
// lineage traversal never blocks writers and the first read after a write
// copies no records; both expose the change feed (ChangesSince /
// Snapshot.DeltaSince) that the account, view and cache layers consume for
// incremental maintenance.
package plus

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// ObjectKind distinguishes provenance node types (Open Provenance Model
// terminology: artifacts and processes).
type ObjectKind string

const (
	// Data is an artifact: a file, record, report, model, ...
	Data ObjectKind = "data"
	// Invocation is a process execution that consumed and produced data.
	Invocation ObjectKind = "invocation"
)

// Object is one provenance node.
type Object struct {
	ID       string            `json:"id"`
	Kind     ObjectKind        `json:"kind"`
	Name     string            `json:"name"`
	Features map[string]string `json:"features,omitempty"`
	// Lowest is the nickname of the object's lowest privilege-predicate;
	// empty means Public.
	Lowest string `json:"lowest,omitempty"`
	// Protect selects how the object's node-edge incidences are marked
	// for consumers below Lowest (§3.2: providers may mark all edges
	// connected to a node): "surrogate" preserves connectivity through
	// the hidden node, "hide" severs it, "" leaves the incidences
	// Visible (edges then attach to the object's surrogate, if any).
	Protect string `json:"protect,omitempty"`
}

// Edge is one provenance relationship (e.g. "input-to", "generated-by")
// from object From to object To, directed along dataflow.
type Edge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Label string `json:"label,omitempty"`
	// Marking optionally restricts the edge for consumers below Lowest:
	// "surrogate" contracts it, "hide" drops it, "" shows it.
	Marking string `json:"marking,omitempty"`
	// Lowest is the predicate at or above which the edge is fully visible
	// when Marking is set.
	Lowest string `json:"lowest,omitempty"`
}

// SurrogateSpec is a provider-supplied surrogate version of an object.
type SurrogateSpec struct {
	ForID     string            `json:"for"`
	ID        string            `json:"id"`
	Name      string            `json:"name"`
	Features  map[string]string `json:"features,omitempty"`
	Lowest    string            `json:"lowest,omitempty"`
	InfoScore float64           `json:"infoScore"`
}

// record type tags in the log.
const (
	recObject    = byte(1)
	recEdge      = byte(2)
	recSurrogate = byte(3)
	// recEpoch stamps the log with its epoch identity (see Backend.Epoch).
	// It carries no provenance data: applying it never bumps the revision
	// or enters the change feed. A freshly created log gets one as its
	// first record; Compact writes a new one (the rewrite renumbers
	// revisions, so the old epoch's cursors must stop resolving); a legacy
	// log without one has an epoch appended at open.
	recEpoch = byte(4)
)

// epochRecord is the payload of a recEpoch record. Base, when the record
// heads the log, is the revision the replay counter starts from: a
// compacted log holds only live records, but in-process consumers hold
// revision-numbered state, so replay must resume the old numbering's
// height rather than restart at zero.
type epochRecord struct {
	Epoch string `json:"epoch"`
	Base  uint64 `json:"base,omitempty"`
}

// ErrNotFound is returned when an object id is unknown.
var ErrNotFound = errors.New("plus: object not found")

// ErrClosed is returned on use after Close.
var ErrClosed = errors.New("plus: store closed")

// LogBackend is the durable provenance store: a CRC-guarded append-only
// log with every live record resident in the record table. All methods
// are safe for concurrent use. It implements Backend.
type LogBackend struct {
	mu   sync.RWMutex
	f    *os.File
	path string
	size int64
	sync bool

	// tab holds the live records, guarded by mu; history (superseded
	// versions, oldest first) is never part of a snapshot and stays
	// outside it.
	tab     *table
	history map[string][]Object

	// revision increments on every applied record; engines use it to
	// invalidate cached protected accounts and snapshots when the store
	// changes. Atomic so the snapshot fast path never takes mu.
	revision atomic.Uint64

	// snap caches the last snapshot; valid while its revision matches the
	// store's. Readers hitting the cache never touch mu.
	snap atomic.Pointer[Snapshot]
	// snapMu serialises the slow path of Snapshot, so readers arriving
	// together after a write share one snapshot instead of freezing one
	// each. Acquired before mu.
	snapMu sync.Mutex

	// changes is the bounded in-memory change feed: changes[i] was
	// applied at revision changesBase+i+1. The append-only log is the
	// full history on disk, but only a recent window is kept resident —
	// long-lived update-heavy stores would otherwise duplicate their
	// whole write history in memory. Requests past the window fail with
	// ErrTooFarBehind and callers rebuild from a snapshot.
	changes       []Change
	changesBase   uint64
	changeHorizon int

	// epoch identifies this log's revision numbering (Backend.Epoch).
	// Persisted as a recEpoch record, so it survives restarts; rotated by
	// Compact. Guarded by mu.
	epoch string

	// notifier wakes change-feed followers on every applied mutation
	// (Backend.Notify); it has its own lock and never touches mu.
	notifier

	// idx is the lazily-maintained secondary index (kind/name/attr ->
	// ids); see index.go. It has its own lock and is advanced by query
	// probes, never by the write path.
	idx *backendIndex

	closed atomic.Bool
}

// DefaultLogChangeHorizon is how many recent changes the durable backend
// keeps resident for ChangesSince.
const DefaultLogChangeHorizon = 1 << 16

// Store is the historical name of the durable engine, kept as an alias so
// existing callers and tests keep compiling.
type Store = LogBackend

var _ Backend = (*LogBackend)(nil)

// Options configure Open.
type Options struct {
	// Sync makes every append fsync before returning (durable but slow);
	// off by default, matching typical prototype deployments.
	Sync bool
}

// Open opens (or creates) a store at path, replaying the log to rebuild
// the in-memory index. A torn final record — a crash mid-append — is
// truncated away; any earlier corruption is reported as an error.
func Open(path string, opts Options) (*LogBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("plus: open %s: %w", path, err)
	}
	s := &LogBackend{
		f:             f,
		path:          path,
		sync:          opts.Sync,
		tab:           newTable(),
		history:       map[string][]Object{},
		changeHorizon: DefaultLogChangeHorizon,
		idx:           newBackendIndex(),
	}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	if s.epoch == "" {
		// A new log (or one created before epochs existed): mint and
		// persist an identity. For a legacy log the record lands at the
		// tail, which is fine — replay applies it wherever it sits.
		if err := s.append(recEpoch, epochRecord{Epoch: newEpoch()}); err != nil {
			f.Close()
			return nil, fmt.Errorf("plus: stamp epoch: %w", err)
		}
	}
	return s, nil
}

// replay scans the log, applying every intact record and truncating a
// torn tail.
func (s *LogBackend) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("plus: stat: %w", err)
	}
	total := info.Size()
	var off int64
	r := io.NewSectionReader(s.f, 0, total)
	for off < total {
		payload, n, err := readRecord(r)
		if err != nil {
			tornAtTail := errors.Is(err, errTornRecord) ||
				(errors.Is(err, errBadChecksum) && off+n >= total)
			if tornAtTail {
				// Crash mid-append: discard the tail.
				if terr := s.f.Truncate(off); terr != nil {
					return fmt.Errorf("plus: truncate torn tail: %w", terr)
				}
				break
			}
			return fmt.Errorf("plus: replay at offset %d: %w", off, err)
		}
		if err := s.apply(payload[0], payload[1:]); err != nil {
			return fmt.Errorf("plus: replay at offset %d: %w", off, err)
		}
		off += n
	}
	s.size = off
	if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
		return fmt.Errorf("plus: seek: %w", err)
	}
	return nil
}

// errTornRecord marks an incomplete record at the very end of the log;
// errBadChecksum marks a record whose payload fails its CRC. A bad
// checksum at the tail is a torn write (truncated by replay); anywhere
// else it is corruption and replay fails loudly.
var (
	errTornRecord  = errors.New("plus: torn record")
	errBadChecksum = errors.New("plus: record checksum mismatch")
)

// record layout: 4-byte little-endian payload length, 4-byte CRC32C of the
// payload, payload (1 type byte + JSON body).
func readRecord(r io.Reader) ([]byte, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, errTornRecord
		}
		return nil, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > 1<<24 {
		return nil, 0, fmt.Errorf("plus: implausible record length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, errTornRecord
		}
		return nil, 0, err
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, int64(8 + length), errBadChecksum
	}
	return payload, int64(8 + length), nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func (s *LogBackend) apply(kind byte, body []byte) error {
	if kind == recEpoch {
		var er epochRecord
		if err := json.Unmarshal(body, &er); err != nil {
			return err
		}
		if er.Epoch == "" {
			return fmt.Errorf("plus: epoch record with empty epoch")
		}
		s.epoch = er.Epoch
		// Base only applies at the head of the log (a compacted rewrite);
		// an epoch record appended mid-history never rewinds the counter.
		if s.revision.Load() == 0 && er.Base > 0 {
			s.revision.Store(er.Base)
			s.changesBase = er.Base
		}
		return nil
	}
	c := Change{}
	switch kind {
	case recObject:
		var o Object
		if err := json.Unmarshal(body, &o); err != nil {
			return err
		}
		o = internObject(o)
		if prev, replaced := s.tab.putObject(s.tab.slot(o.ID), o); replaced {
			s.history[o.ID] = append(s.history[o.ID], prev)
		}
		c.Kind, c.Object = ChangeObject, o
	case recEdge:
		var e Edge
		if err := json.Unmarshal(body, &e); err != nil {
			return err
		}
		e = internEdge(e)
		s.tab.putEdge(s.tab.slot(e.From), s.tab.slot(e.To), e)
		c.Kind, c.Edge = ChangeEdge, e
	case recSurrogate:
		var sp SurrogateSpec
		if err := json.Unmarshal(body, &sp); err != nil {
			return err
		}
		sp = internSurrogate(sp)
		s.tab.putSurrogate(s.tab.slot(sp.ForID), sp)
		c.Kind, c.Surrogate = ChangeSurrogate, sp
	default:
		return fmt.Errorf("plus: unknown record type %d", kind)
	}
	c.Rev = s.revision.Add(1)
	s.changes = append(s.changes, c)
	s.trimChanges()
	return nil
}

// trimChanges drops the oldest retained changes once the window exceeds
// the horizon by half (slack keeps the copy amortised O(1) per write).
func (s *LogBackend) trimChanges() {
	h := s.changeHorizon
	if h < 0 {
		h = 0
	}
	if len(s.changes) <= h+h/2 {
		return
	}
	drop := len(s.changes) - h
	s.changesBase += uint64(drop)
	s.changes = append(s.changes[:0:0], s.changes[drop:]...)
}

// SetChangeHorizon resizes the resident change window (minimum 0, which
// retains nothing). Shrinking discards the oldest retained changes.
func (s *LogBackend) SetChangeHorizon(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.changeHorizon = n
	if len(s.changes) > n {
		drop := len(s.changes) - n
		s.changesBase += uint64(drop)
		s.changes = append(s.changes[:0:0], s.changes[drop:]...)
	}
}

// ChangeHorizon reports the resident change-window capacity.
func (s *LogBackend) ChangeHorizon() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.changeHorizon
}

// ChangeWindow reports the resident change-feed window; followers use it
// (via the healthz changeFeed block) to compute their lag against the
// oldest position the feed can still serve.
func (s *LogBackend) ChangeWindow() FeedWindow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return FeedWindow{
		Base:    s.changesBase,
		Depth:   len(s.changes),
		Horizon: s.changeHorizon,
	}
}

// Revision returns a counter that increases with every stored record;
// equal revisions imply identical store contents (within one process).
func (s *LogBackend) Revision() uint64 {
	return s.revision.Load()
}

// Epoch identifies this log's revision numbering; stable across restarts,
// rotated by Compact.
func (s *LogBackend) Epoch() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// ChangesSince returns the records applied after revision since, in
// order. Only the recent window (ChangeHorizon) is resident; a request
// past it fails with ErrTooFarBehind and the caller rebuilds from a
// snapshot.
func (s *LogBackend) ChangesSince(since uint64) ([]Change, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	rev := s.revision.Load()
	if since > rev {
		return nil, errFutureRevision(since, rev)
	}
	if since < s.changesBase {
		return nil, ErrTooFarBehind
	}
	return append([]Change(nil), s.changes[since-s.changesBase:rev-s.changesBase]...), nil
}

// walkChangesSince streams the retained changes with revision in
// (since, upTo] to visit straight out of the resident window, copying
// nothing. The window is a single revision-ordered slice, so unlike
// MemBackend's shard-by-shard walk the visits here are globally ordered.
// See changeWalker for the contract.
func (s *LogBackend) walkChangesSince(since, upTo uint64, visit func(*Change)) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	rev := s.revision.Load()
	if since > rev {
		return errFutureRevision(since, rev)
	}
	if since < s.changesBase {
		return ErrTooFarBehind
	}
	if upTo > rev {
		upTo = rev
	}
	for i := since - s.changesBase; i < upTo-s.changesBase; i++ {
		visit(&s.changes[i])
	}
	return nil
}

// Snapshot returns an immutable view of the store at its current
// revision. It is cached: consecutive snapshots with no intervening write
// return the same *Snapshot without taking the store lock, so concurrent
// lineage readers scale with cores instead of serializing on mu. The
// first one after a write freezes the table's bucket pointers under the
// read lock; no record is copied.
func (s *LogBackend) Snapshot() (*Snapshot, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if sn := s.snap.Load(); sn != nil && sn.rev == s.revision.Load() {
		return sn, nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	// Re-check under the locks: another reader may have built it already.
	rev := s.revision.Load()
	if sn := s.snap.Load(); sn != nil && sn.rev == rev {
		return sn, nil
	}
	sn := s.tab.freeze(s, s.idx, rev)
	s.snap.Store(sn)
	return sn, nil
}

// IndexStats reports the secondary index's current state.
func (s *LogBackend) IndexStats() IndexStats { return s.idx.stats() }

// StoreStats reports the record table's snapshot and copy counters.
func (s *LogBackend) StoreStats() StoreStats { return s.tab.stats() }

// Ping reports whether the store is open.
func (s *LogBackend) Ping() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return nil
}

// append writes one record and updates the index via apply.
func (s *LogBackend) append(kind byte, v interface{}) error {
	if s.closed.Load() {
		return ErrClosed
	}
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("plus: encode: %w", err)
	}
	payload := append([]byte{kind}, body...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := s.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("plus: write: %w", err)
	}
	if _, err := s.f.Write(payload); err != nil {
		return fmt.Errorf("plus: write: %w", err)
	}
	if s.sync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("plus: sync: %w", err)
		}
	}
	s.size += int64(8 + len(payload))
	if err := s.apply(kind, body); err != nil {
		return err
	}
	s.broadcast()
	return nil
}

// PutObject stores (or replaces) a provenance object.
func (s *LogBackend) PutObject(o Object) error {
	if err := validateObject(o); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(recObject, o)
}

// PutEdge stores a provenance edge; both endpoints must exist.
func (s *LogBackend) PutEdge(e Edge) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tab.has(e.From) {
		return fmt.Errorf("plus: edge %s->%s: %w (from)", e.From, e.To, ErrNotFound)
	}
	if !s.tab.has(e.To) {
		return fmt.Errorf("plus: edge %s->%s: %w (to)", e.From, e.To, ErrNotFound)
	}
	if e.From == e.To {
		return fmt.Errorf("plus: self edge %s rejected", e.From)
	}
	if s.tab.hasEdge(e.From, e.To) {
		return fmt.Errorf("plus: duplicate edge %s->%s", e.From, e.To)
	}
	return s.append(recEdge, e)
}

// PutSurrogate stores a surrogate version of an object.
func (s *LogBackend) PutSurrogate(sp SurrogateSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tab.has(sp.ForID) {
		return fmt.Errorf("plus: surrogate for %s: %w", sp.ForID, ErrNotFound)
	}
	if err := validateSurrogate(sp); err != nil {
		return err
	}
	return s.append(recSurrogate, sp)
}

// GetObject fetches one object by id.
func (s *LogBackend) GetObject(id string) (Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return Object{}, ErrClosed
	}
	o, ok := s.tab.of(id).objects[id]
	if !ok {
		return Object{}, fmt.Errorf("plus: %q: %w", id, ErrNotFound)
	}
	return o, nil
}

// NumObjects / NumEdges report the table's own counts.
func (s *LogBackend) NumObjects() int { return int(s.tab.objects.Load()) }
func (s *LogBackend) NumEdges() int   { return int(s.tab.edges.Load()) }

// History returns the superseded versions of an object, oldest first; the
// live version is not included. Because the log is append-only the full
// history replays on open; Compact drops it (only live state is
// rewritten), which callers trade off against space.
func (s *LogBackend) History(id string) []Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Object(nil), s.history[id]...)
}

// Objects returns every object (unspecified order).
func (s *LogBackend) Objects() []Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tab.objectList(s.NumObjects())
}

// Close flushes and closes the log file.
func (s *LogBackend) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)
	s.snap.Store(nil)
	s.broadcast() // wake parked followers so they observe the close
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("plus: close sync: %w", err)
	}
	return s.f.Close()
}

// Size returns the log size in bytes.
func (s *LogBackend) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

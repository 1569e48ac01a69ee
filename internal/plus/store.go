// Package plus reimplements the substrate the paper evaluated on: the
// PLUS provenance prototype ("PLUS: Synthesizing privacy, lineage,
// uncertainty and security", ICDE Workshops 2008). It provides a durable
// provenance store for lineage DAGs — data objects, process invocations
// and the edges between them — together with a privilege-aware lineage
// query engine that answers path-traversal queries ("what contributed to
// this data?") with protected accounts, and an HTTP server/client pair.
//
// Storage is pluggable behind the Backend interface, and both built-in
// backends are one store core (core.go): the copy-on-write record table of
// table.go, one revision-ordered change feed and one write path under one
// lock. MemBackend is that core alone, for volatile serving. LogBackend is
// the core plus a single append-only log file where each record is
// length-prefixed, type-tagged and CRC-guarded; the core is rebuilt by
// replaying the log on open, and a torn tail from a crashed writer is
// detected and truncated. This is deliberately the classical minimal
// write-ahead design: the paper's Figure 10 experiment decomposes query
// cost into DB access, graph build and protection, and this engine
// reproduces that decomposition honestly. Queries run over immutable
// revision-stamped snapshots that share the table's buckets, so lineage
// traversal never blocks writers and the first read after a write copies
// no records; the change feed (ChangesSince / Snapshot.DeltaSince) is what
// the account, view and cache layers consume for incremental maintenance.
package plus

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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

// LogBackend is the durable provenance store: the store core (core.go)
// with every batch appended to a CRC-guarded log before it is stored, so
// the log replays to the same records. All methods are safe for
// concurrent use. It implements Backend.
type LogBackend struct {
	storeCore
	f    *os.File
	path string
	sync bool

	// size is the length of the log's acknowledged prefix, where the next
	// record is written. Guarded by mu.
	size int64
	// broken is set when a failed write could not be cut back off the
	// log: later writes would land behind the fragment and make the log
	// unreadable, so they are refused with ErrClosed. Guarded by mu.
	broken bool
}

var _ Backend = (*LogBackend)(nil)

// Options configure Open.
type Options struct {
	// Sync makes every append fsync before returning (durable but slow);
	// off by default, matching typical prototype deployments.
	Sync bool
}

// Open opens (or creates) a store at path, replaying the log to rebuild
// the store core. A torn final record — a crash mid-append — is truncated
// away; any earlier corruption is reported as an error.
func Open(path string, opts Options) (*LogBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("plus: open %s: %w", path, err)
	}
	s := &LogBackend{f: f, path: path, sync: opts.Sync}
	s.init("")
	s.persist = s.persistBatch
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	if s.epoch == "" {
		// A new log (or one created before epochs existed): mint and
		// persist an identity. For a legacy log the record lands at the
		// tail, which is fine — replay applies it wherever it sits.
		epoch := newEpoch()
		rec, err := appendRecord(nil, recEpoch, epochRecord{Epoch: epoch})
		if err == nil {
			err = s.writeLog(rec)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("plus: stamp epoch: %w", err)
		}
		s.epoch = epoch
	}
	return s, nil
}

// replay scans the log, storing every intact record and truncating a torn
// tail.
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
		if err := s.replayRecord(payload[0], payload[1:]); err != nil {
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

// replayRecord decodes one record body and stores it. Replay is the only
// place the log is decoded: live writes store the typed records they
// encoded.
func (s *LogBackend) replayRecord(kind byte, body []byte) error {
	switch kind {
	case recEpoch:
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
			s.base = er.Base
		}
	case recObject:
		var o Object
		if err := json.Unmarshal(body, &o); err != nil {
			return err
		}
		s.storeObject(o)
	case recEdge:
		var e Edge
		if err := json.Unmarshal(body, &e); err != nil {
			return err
		}
		s.storeEdge(e)
	case recSurrogate:
		var sp SurrogateSpec
		if err := json.Unmarshal(body, &sp); err != nil {
			return err
		}
		s.storeSurrogate(sp)
	default:
		return fmt.Errorf("plus: unknown record type %d", kind)
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

// appendRecord appends one record of the layout readRecord reads to buf.
// It is the log's one encoder: writes, the epoch stamp and Compact all go
// through it.
func appendRecord(buf []byte, kind byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("plus: encode: %w", err)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	buf = append(buf, body...)
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

func appendRecords[T any](buf []byte, kind byte, recs []T) ([]byte, error) {
	var err error
	for _, r := range recs {
		if buf, err = appendRecord(buf, kind, r); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// persistBatch is the core's persist step: it encodes the batch's records
// into one buffer and appends it with one write (and, with Options.Sync,
// one fsync). A crash mid-write leaves a torn tail that replay truncates,
// so a batch is atomic-on-recovery only up to the records that fully made
// it to disk.
func (s *LogBackend) persistBatch(b *Batch) error {
	buf, err := appendRecords(nil, recObject, b.Objects)
	if err == nil {
		buf, err = appendRecords(buf, recEdge, b.Edges)
	}
	if err == nil {
		buf, err = appendRecords(buf, recSurrogate, b.Surrogates)
	}
	if err != nil {
		return err
	}
	return s.writeLog(buf)
}

// writeLog appends whole records to the log. A failed write or fsync may
// have left a fragment behind the acknowledged prefix; it is cut off, so
// the next acknowledged write lands right after the last one. If the cut
// fails too, the log refuses further writes. Callers hold the write lock.
func (s *LogBackend) writeLog(buf []byte) error {
	if s.broken {
		return ErrClosed
	}
	_, err := s.f.Write(buf)
	if err == nil && s.sync {
		err = s.f.Sync()
	}
	if err == nil {
		s.size += int64(len(buf))
		return nil
	}
	rerr := s.f.Truncate(s.size)
	if rerr == nil {
		_, rerr = s.f.Seek(s.size, io.SeekStart)
	}
	if rerr != nil {
		s.broken = true
		return fmt.Errorf("plus: write: %w (rollback: %v; log refuses further writes)", err, rerr)
	}
	return fmt.Errorf("plus: write: %w", err)
}

// Close flushes and closes the log file.
func (s *LogBackend) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.shut()
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

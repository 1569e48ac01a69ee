package plus

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
)

// Compact rewrites the log so it contains exactly one record per live
// object (objects are replace-on-put, so a busy store accumulates
// superseded versions) plus every edge and surrogate, then atomically
// swaps it in. The store stays usable afterwards; readers and writers are
// blocked for the duration.
func (s *LogBackend) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}

	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("plus: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename

	ids := make([]string, 0, s.NumObjects())
	s.tab.eachObject(func(o Object) { ids = append(ids, o.ID) })
	sort.Strings(ids)

	// Compaction renumbers history: replaying the rewritten log yields one
	// record per live object instead of every superseded version, so old
	// revision numbers stop naming the same prefixes. Rotate the epoch
	// (stranded cursors get a 410-resync instead of silently wrong deltas)
	// and record the replay base so the counter resumes at its current
	// height — in-process consumers keep their revision-numbered state.
	live := uint64(len(ids) + s.NumEdges())
	for _, id := range ids {
		live += uint64(len(s.tab.of(id).surrogates[id]))
	}
	nextEpoch := newEpoch()

	w := bufio.NewWriter(tmp)
	var rec []byte
	var written int64
	put := func(kind byte, v any) error {
		var err error
		if rec, err = appendRecord(rec[:0], kind, v); err != nil {
			return err
		}
		written += int64(len(rec))
		_, err = w.Write(rec)
		return err
	}
	writeAll := func() error {
		if err := put(recEpoch, epochRecord{Epoch: nextEpoch, Base: s.revision.Load() - live}); err != nil {
			return err
		}
		for _, id := range ids {
			if err := put(recObject, s.tab.of(id).objects[id]); err != nil {
				return err
			}
		}
		for _, id := range ids {
			b := s.tab.of(id)
			for _, e := range b.out[id] {
				if err := put(recEdge, e); err != nil {
					return err
				}
			}
			for _, sp := range b.surrogates[id] {
				if err := put(recSurrogate, sp); err != nil {
					return err
				}
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return tmp.Sync()
	}
	if err := writeAll(); err != nil {
		tmp.Close()
		return fmt.Errorf("plus: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("plus: compact close: %w", err)
	}

	// Swap the compacted log in and repoint the store's handle.
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("plus: compact: close old log: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return fmt.Errorf("plus: compact rename: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("plus: compact reopen: %w", err)
	}
	if _, err := f.Seek(written, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("plus: compact seek: %w", err)
	}
	s.f = f
	s.size = written
	s.epoch = nextEpoch
	// Drop the resident change window too: its entries carry pre-compact
	// revision numbers, which the rewritten log no longer reproduces — a
	// reopen replays the compacted records into those same revision slots.
	// Serving them under the new epoch would hand out cursors that resolve
	// to different records after a restart. With the window rebased to the
	// current revision, readers behind it get ErrTooFarBehind (HTTP 410)
	// and rebuild from a snapshot, which is always correct.
	s.trimFeed(0)
	// Wake parked change-feed followers: their streams are pinned to the
	// old epoch, and the handler ends them when it notices the rotation
	// (the client then reconnects and resyncs through the 410 path).
	s.broadcast()
	return nil
}

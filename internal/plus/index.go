package plus

import (
	"sync"
	"sync/atomic"

	"repro/internal/intern"
)

// This file implements the persistent secondary index of the storage
// layer: name -> object ids, keyed by interned symbols so a probe is one
// map lookup on an integer instead of a linear scan comparing strings.
// Lineage requests that name their start (Request.StartName) resolve it
// here.
//
// Each backend owns ONE live backendIndex, maintained lazily: queries go
// through Snapshot.FindByName, and the first probe at a new revision
// advances the index by walking the store's change feed from the revision
// it last covered. When the feed has aged out (ErrTooFarBehind) — or
// anything else goes wrong with the delta — the index is rebuilt in full
// from the probing snapshot, the same resync escape hatch every other
// change-feed consumer uses. Ingest itself never touches the index, so
// batch-load throughput is unchanged and index upkeep is billed to the
// queries that benefit from it.
//
// A probe from a snapshot OLDER than the index (a reader holding a stale
// snapshot while newer queries advanced the index) cannot be answered
// from the postings — entries added after the old snapshot would leak in.
// Those probes fall back to a linear scan of the probing snapshot and are
// counted as index misses.

// IndexStats is a point-in-time report of one backend's secondary-index
// state, surfaced through the /v1/healthz probe, plusctl status and the
// metrics registry.
type IndexStats struct {
	// Rev is the revision the index currently covers.
	Rev uint64 `json:"rev"`
	// NameEntries counts postings: one per named object.
	NameEntries int `json:"nameEntries"`
	// Hits counts probes answered from the index; Misses counts probes
	// that fell back to a linear scan (stale snapshot).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Advances counts incremental catch-ups through the change feed;
	// Builds the initial constructions; Rebuilds the hazard resyncs
	// (ErrTooFarBehind and friends).
	Advances uint64 `json:"advances"`
	Builds   uint64 `json:"builds"`
	Rebuilds uint64 `json:"rebuilds"`
}

// backendIndex is the live name index of one backend. Probes take
// the read lock when the index already covers the probing snapshot's
// revision; the first probe at a newer revision takes the write lock and
// advances. Postings are unordered (consumers needing determinism sort).
type backendIndex struct {
	mu     sync.RWMutex
	built  bool
	rev    uint64
	byName map[intern.Sym][]string
	names  map[string]intern.Sym // the posted name of each named object

	hits     atomic.Uint64
	misses   atomic.Uint64
	advances atomic.Uint64
	builds   atomic.Uint64
	rebuilds atomic.Uint64
}

func newBackendIndex() *backendIndex { return &backendIndex{} }

func (ix *backendIndex) stats() IndexStats {
	ix.mu.RLock()
	st := IndexStats{Rev: ix.rev, NameEntries: len(ix.names)}
	ix.mu.RUnlock()
	st.Hits = ix.hits.Load()
	st.Misses = ix.misses.Load()
	st.Advances = ix.advances.Load()
	st.Builds = ix.builds.Load()
	st.Rebuilds = ix.rebuilds.Load()
	return st
}

// lookup answers one probe against the index at sn's revision, advancing
// the index first if it is behind. The read callback runs under the
// index lock and must only read the postings maps; lookup returns a
// private copy of its result. ok=false means the index cannot serve this
// snapshot (it is ahead of it) and the caller must scan.
func (ix *backendIndex) lookup(sn *Snapshot, read func() []string) (ids []string, ok bool) {
	ix.mu.RLock()
	if ix.built && ix.rev == sn.rev {
		ids = append([]string(nil), read()...)
		ix.mu.RUnlock()
		ix.hits.Add(1)
		return ids, true
	}
	ahead := ix.built && ix.rev > sn.rev
	ix.mu.RUnlock()
	if ahead {
		ix.misses.Add(1)
		return nil, false
	}
	ix.mu.Lock()
	if !ix.built || ix.rev < sn.rev {
		ix.advanceLocked(sn)
	}
	if ix.rev != sn.rev {
		// Another probe advanced past us between the unlock and relock.
		ix.mu.Unlock()
		ix.misses.Add(1)
		return nil, false
	}
	ids = append([]string(nil), read()...)
	ix.mu.Unlock()
	ix.hits.Add(1)
	return ids, true
}

// advanceLocked brings the index up to sn's revision: incrementally via
// the change feed when possible, by full rebuild from sn on the first
// build or on any feed hazard (ErrTooFarBehind, a closed store). Caller
// holds the write lock.
func (ix *backendIndex) advanceLocked(sn *Snapshot) {
	if !ix.built {
		ix.rebuildLocked(sn)
		ix.builds.Add(1)
		return
	}
	// The walk copies no changes; edges and surrogates don't carry
	// names. A failed walk has visited nothing.
	err := sn.source.walkChangesSince(ix.rev, sn.rev, func(c *Change) {
		if c.Kind == ChangeObject {
			ix.applyObjectLocked(c.Object)
		}
	})
	if err != nil {
		ix.rebuildLocked(sn)
		ix.rebuilds.Add(1)
		return
	}
	ix.rev = sn.rev
	ix.advances.Add(1)
}

func (ix *backendIndex) rebuildLocked(sn *Snapshot) {
	n := sn.NumObjects()
	ix.byName = make(map[intern.Sym][]string, n)
	ix.names = make(map[string]intern.Sym, n)
	sn.eachObject(ix.applyObjectLocked)
	ix.rev = sn.rev
	ix.built = true
}

// applyObjectLocked folds one object store/replace from the change feed
// into the postings.
func (ix *backendIndex) applyObjectLocked(o Object) {
	name := intern.S(o.Name)
	old := ix.names[o.ID] // intern.None when unnamed or new
	if name == old {
		return
	}
	if old != intern.None {
		ix.byName[old] = removeID(ix.byName[old], o.ID)
	}
	if name == intern.None {
		delete(ix.names, o.ID)
		return
	}
	ix.names[o.ID] = name
	ix.byName[name] = append(ix.byName[name], o.ID)
}

// removeID swap-deletes the first occurrence of id (postings are
// unordered).
func removeID(ids []string, id string) []string {
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			return ids[:len(ids)-1]
		}
	}
	return ids
}

// scan is the linear fallback: the ids of the objects match accepts.
func (sn *Snapshot) scan(match func(Object) bool) []string {
	var out []string
	sn.eachObject(func(o Object) {
		if match(o) {
			out = append(out, o.ID)
		}
	})
	return out
}

// FindByName returns the ids of the snapshot's objects with the given
// (non-empty) name, in unspecified order. Served from the backend's name
// index when it covers this snapshot's revision; otherwise (a stale
// snapshot) a linear scan, counted as an index miss.
func (sn *Snapshot) FindByName(name string) []string {
	if name == "" {
		// Unnamed objects are not indexed; scan for them.
		return sn.scan(func(o Object) bool { return o.Name == "" })
	}
	ix := sn.source.idx
	sym, known := intern.Lookup(name)
	if !known {
		// Never interned: no stored record anywhere carries this string,
		// so no object in this snapshot can match.
		ix.hits.Add(1)
		return nil
	}
	if ids, ok := ix.lookup(sn, func() []string { return ix.byName[sym] }); ok {
		return ids
	}
	return sn.scan(func(o Object) bool { return o.Name == name })
}

// indexStatsProvider is implemented by backends that own a secondary
// index; healthz and the metrics registry discover it by assertion
// (through unwrapBackend for decorated stores).
type indexStatsProvider interface {
	IndexStats() IndexStats
}

package plus

import (
	"errors"
	"fmt"
	"sort"
)

// This file defines the change feed: the ordered stream of record deltas a
// backend applied between two revisions. The feed is what turns the
// revision counter from a bare invalidation signal ("something changed,
// throw every derived structure away") into a maintenance signal ("these
// records changed, patch what they touch"). The protected-account and
// PLUSQL view layers consume it to refresh caches incrementally instead of
// rebuilding whole-snapshot accounts on every write.

// ChangeKind tags one change-feed record.
type ChangeKind byte

const (
	// ChangeObject is an object stored (new) or replaced (the previous
	// version moved to history).
	ChangeObject ChangeKind = 1
	// ChangeEdge is an edge stored. Edges are never replaced or removed.
	ChangeEdge ChangeKind = 2
	// ChangeSurrogate is a surrogate spec stored. Surrogates accumulate.
	ChangeSurrogate ChangeKind = 3
)

// Change is one applied record together with the revision it produced.
// Exactly one of Object, Edge and Surrogate is meaningful, selected by
// Kind.
type Change struct {
	Rev       uint64
	Kind      ChangeKind
	Object    Object
	Edge      Edge
	Surrogate SurrogateSpec
}

// ErrTooFarBehind is returned by ChangesSince when the requested start
// revision has aged out of the backend's retained change window; callers
// fall back to a full rebuild from a fresh snapshot.
var ErrTooFarBehind = errors.New("plus: revision too far behind retained change feed")

// errFutureRevision reports a ChangesSince start beyond the backend's
// current revision.
func errFutureRevision(since, rev uint64) error {
	return fmt.Errorf("plus: revision %d is in the future (backend at %d)", since, rev)
}

// Delta is the change set between two revisions of one backend, as seen
// from a snapshot: every record applied after Since, up to and including
// Rev, in application order.
type Delta struct {
	// Since is the revision the delta starts after (exclusive).
	Since uint64
	// Rev is the revision the delta ends at (inclusive).
	Rev uint64
	// Changes holds the applied records in revision order.
	Changes []Change
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool { return len(d.Changes) == 0 }

// changeWalker is implemented by backends that can stream their retained
// change feed in place. Unlike ChangesSince it neither copies the Change
// records nor merge-sorts them: visit observes each change with revision
// in (since, upTo] exactly once, in revision order PER PRIMARY ID but in
// unspecified order across ids. The pointer passed to visit is only valid
// for the duration of the call. When part of the window has been evicted
// the walk fails with ErrTooFarBehind — possibly after visiting some
// changes, so callers must treat any error as "discard partial work and
// rebuild".
type changeWalker interface {
	walkChangesSince(since, upTo uint64, visit func(*Change)) error
}

// walkObjectChanges streams the object changes applied after revision
// since, up to the snapshot's revision, into visit. It is the allocation-
// free sibling of DeltaSince for consumers — like the secondary index —
// that only fold per-object state and don't care about cross-object
// ordering: when the source backend supports in-place walking, nothing is
// copied and nothing is sorted. On any feed hazard (ErrTooFarBehind,
// missing source) the caller must discard partial work and rebuild.
func (sn *Snapshot) walkObjectChanges(since uint64, visit func(Object)) error {
	if since > sn.rev {
		return errFutureRevision(since, sn.rev)
	}
	if w, ok := sn.source.(changeWalker); ok {
		return w.walkChangesSince(since, sn.rev, func(c *Change) {
			if c.Kind == ChangeObject {
				visit(c.Object)
			}
		})
	}
	d, err := sn.DeltaSince(since)
	if err != nil {
		return err
	}
	for i := range d.Changes {
		if d.Changes[i].Kind == ChangeObject {
			visit(d.Changes[i].Object)
		}
	}
	return nil
}

// DeltaSince returns the changes applied after revision since, up to this
// snapshot's revision, drawn from the backend the snapshot was taken of.
// It fails with ErrTooFarBehind when the backend no longer retains the
// window (callers rebuild from scratch) and with an error when since is
// newer than the snapshot.
func (sn *Snapshot) DeltaSince(since uint64) (*Delta, error) {
	if since > sn.rev {
		return nil, errFutureRevision(since, sn.rev)
	}
	if sn.source == nil {
		return nil, fmt.Errorf("plus: snapshot has no change-feed source")
	}
	changes, err := sn.source.ChangesSince(since)
	if err != nil {
		return nil, err
	}
	// The backend may have advanced past this snapshot; keep only the
	// window the snapshot covers.
	i := sort.Search(len(changes), func(i int) bool { return changes[i].Rev > sn.rev })
	return &Delta{Since: since, Rev: sn.rev, Changes: changes[:i]}, nil
}

// checkContiguous verifies a gathered change window covers (since, rev]
// with no gaps; a gap means part of the window aged out of a bounded feed.
func checkContiguous(changes []Change, since, rev uint64) error {
	if uint64(len(changes)) != rev-since {
		return ErrTooFarBehind
	}
	for i, c := range changes {
		if c.Rev != since+uint64(i)+1 {
			return ErrTooFarBehind
		}
	}
	return nil
}

package plus

import (
	"errors"
	"fmt"
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
	// version is dropped; the log keeps it until Compact).
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

// DeltaSince returns the changes applied after revision since, up to this
// snapshot's revision, drawn from the store the snapshot was taken of. It
// fails with ErrTooFarBehind when the store no longer retains the window
// (callers rebuild from scratch) and with an error when since is newer
// than the snapshot.
func (sn *Snapshot) DeltaSince(since uint64) (*Delta, error) {
	if since > sn.rev {
		return nil, errFutureRevision(since, sn.rev)
	}
	d := &Delta{Since: since, Rev: sn.rev}
	if err := sn.source.walkChangesSince(since, sn.rev, func(c *Change) { d.Changes = append(d.Changes, *c) }); err != nil {
		return nil, err
	}
	return d, nil
}

package plus

import (
	"fmt"
	"net/http"
)

// CodeReadOnly is the structured error code a follower answers writes
// with: the node serves queries from replicated state and accepts no
// mutations of its own (readonly.go / internal/replica).
const CodeReadOnly = "read_only"

// readOnly is the server's follower-mode write policy (WithReadOnly).
type readOnly struct {
	enabled bool
	// proxy, when non-nil, forwards refused writes to the primary
	// (plusd -follow-proxy-writes) instead of answering 403.
	proxy http.Handler
}

// WithReadOnly puts the server in follower mode: every endpoint the table
// marks as a write (/v2/batch, POST /v2/opm, /v2/compact) refuses with a
// structured 403 code "read_only" instead of touching the local store, which only the replication apply loop may
// write. A non-nil proxy reverses the refusal into a pass-through: the
// original request — auth headers intact, so the primary authorizes the
// original principal — is forwarded to it, and the follower observes the
// write later through the change feed like any other. Reads (lineage,
// PLUSQL, point reads, snapshot, changes, sessions) are untouched.
func WithReadOnly(proxy http.Handler) ServerOption {
	return func(s *Server) { s.readOnly = readOnly{enabled: true, proxy: proxy} }
}

// gateWrite enforces the read-only policy on one mutating request. It
// reports true when the request was fully answered here (refused or
// proxied). The dispatcher runs it before authorization: the follower may not even hold the keyring material to
// judge an ingest token, and when proxying, authorization is the
// primary's call to make.
func (s *Server) gateWrite(w http.ResponseWriter, r *http.Request) bool {
	if !s.readOnly.enabled {
		return false
	}
	if s.readOnly.proxy != nil {
		s.readOnly.proxy.ServeHTTP(w, r)
		return true
	}
	WriteAPIError(w, v2Errorf(http.StatusForbidden, CodeReadOnly,
		"plus: this node is a read replica; write to the primary"))
	return true
}

// ReplicaHealth is the replication block of the healthz payload (and of
// plusctl status): where this node replicates from and how far behind it
// is. internal/replica assembles it; the server only renders it
// (WithReplicaHealth), keeping the dependency one-way.
type ReplicaHealth struct {
	// Role is "follower" (a primary serves no block at all).
	Role string `json:"role"`
	// Primary is the base URL the node replicates from.
	Primary string `json:"primary"`
	// State is bootstrapping | following | resyncing | degraded | failed |
	// stopped.
	State string `json:"state"`
	// AppliedRev is the last primary revision applied locally; PrimaryRev
	// the newest primary revision the follower has observed.
	AppliedRev uint64 `json:"appliedRev"`
	PrimaryRev uint64 `json:"primaryRev"`
	// LagRevisions is PrimaryRev-AppliedRev (0 when caught up);
	// LagSeconds is how long the follower has continuously been behind.
	LagRevisions uint64  `json:"lagRevisions"`
	LagSeconds   float64 `json:"lagSeconds"`
	// Applied counts change events applied since boot, Batches the local
	// Apply calls they were coalesced into, ApplyPerSec the recent apply
	// throughput (events/s, exponentially decayed).
	Applied     uint64  `json:"applied"`
	Batches     uint64  `json:"batches"`
	ApplyPerSec float64 `json:"applyPerSec"`
	// Resyncs counts snapshot rebases (bootstrap excluded), Reconnects the
	// change-feed transport reconnects.
	Resyncs    uint64 `json:"resyncs"`
	Reconnects uint64 `json:"reconnects"`
}

// String renders the one-line summary plusd logs on state changes.
func (h *ReplicaHealth) String() string {
	return fmt.Sprintf("replica %s of %s: applied %d/%d (lag %d revs, %.1fs), %d resyncs, %d reconnects",
		h.State, h.Primary, h.AppliedRev, h.PrimaryRev, h.LagRevisions, h.LagSeconds, h.Resyncs, h.Reconnects)
}

// WithReplicaHealth registers the provider of the healthz replication
// block. The callback must be safe for concurrent use and may return nil
// while replication has not started.
func WithReplicaHealth(fn func() *ReplicaHealth) ServerOption {
	return func(s *Server) { s.replicaHealth = fn }
}

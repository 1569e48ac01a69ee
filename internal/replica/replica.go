package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// ErrDiverged reports that the local store holds records the primary
// does not: replaying or resyncing cannot reconcile them, so the
// follower refuses to serve. Recovery is operational — delete the local
// store and state file and re-bootstrap.
var ErrDiverged = errors.New("replica: local store diverged from primary; delete local state and re-bootstrap")

// State names a replica's lifecycle phase (ReplicaHealth.State).
type State string

// Replica states, in the order a healthy follower passes through them.
const (
	StateBootstrapping State = "bootstrapping"
	StateFollowing     State = "following"
	StateResyncing     State = "resyncing"
	// StateDegraded means repeated follow/resync attempts are failing
	// (e.g. the primary is down); reads keep serving the last applied
	// state while the loop retries.
	StateDegraded State = "degraded"
	StateFailed   State = "failed"
	StateStopped  State = "stopped"
)

// Config wires a Replica.
type Config struct {
	// Primary is the primary's base URL (http:// or https://).
	Primary string
	// Token authenticates the replication link (a session holding the
	// replicate capability); empty against open-mode primaries.
	Token string
	// Viewer is the open-mode principal to assert when no Token is set.
	Viewer string
	// CAFile verifies an https Primary against a custom chain (the
	// cert.pem a self-signed primary serves with).
	CAFile string
	// HTTPClient overrides the transport (tests); CAFile still applies
	// on top of it.
	HTTPClient *http.Client
	// Backend is the local store the apply loop writes and the follower
	// serves from. Required; the replica does not close it.
	Backend plus.Backend
	// StatePath, when set, persists the applied cursor (and the adopted
	// lattice) through a temp-file rename after every flush, so a
	// restart over a durable Backend resumes its cursor instead of
	// re-downloading the snapshot.
	StatePath string
	// FlushEvery caps how many change events buffer before a local
	// Apply (default 256); sync events always flush, so the cap only
	// bounds memory during catch-up bursts.
	FlushEvery int
	// Coalesce, when positive, is a group-commit window: instead of
	// flushing on every sync event — which under trickle ingest means one
	// local Apply (and one cache-invalidation round) per primary write —
	// the follower holds buffered events up to this long and applies them
	// as one batch. The price is bounded, self-chosen staleness (reads
	// trail the primary by at most the window plus apply time); the gain
	// is that many primary writes collapse into one invalidation, so a
	// follower under heavy ingest keeps serving mostly-cached reads.
	// Zero (the default) preserves flush-on-sync.
	Coalesce time.Duration
	// Wait is the change-feed long-poll budget (default 10s).
	Wait time.Duration
	// PollInterval paces the primary healthz poll that keeps primaryRev
	// (and therefore lag) honest while the feed idles (default 2s; <0
	// disables).
	PollInterval time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...interface{})
}

// Replica replicates one primary into a local backend and reports its
// health. Construct with New, then Start (bootstrap or resume) before
// building engines over the backend, then Run the apply loop.
type Replica struct {
	cfg     Config
	client  *plusclient.Client
	backend plus.Backend

	// stats is shared with every Follow call so reconnect/resync counts
	// accumulate across rejoins.
	stats plusclient.FollowStats
	// meter tracks recent apply throughput (events/s).
	meter obs.Meter

	// mu guards cursor, buf, lattice and state transitions; held across
	// local Apply calls so flushes serialize.
	mu      sync.Mutex
	cursor  string
	buf     []plusclient.Event
	lattice *privilege.Lattice
	state   State
	// flushTimer is the armed group-commit deadline (Coalesce > 0): set
	// when the first event lands in an empty buffer, cleared when it
	// fires. Guarded by mu.
	flushTimer *time.Timer

	appliedRev   atomic.Uint64
	primaryRev   atomic.Uint64
	applied      atomic.Uint64
	batches      atomic.Uint64
	extraResyncs atomic.Uint64
	// behindSince is the unix-nano instant the follower fell behind the
	// primary (0 = caught up); LagSeconds derives from it.
	behindSince atomic.Int64
}

// New validates cfg and builds the replica (no I/O yet; Start contacts
// the primary).
func New(cfg Config) (*Replica, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: no primary URL")
	}
	if cfg.Backend == nil {
		return nil, errors.New("replica: no local backend")
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 256
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 10 * time.Second
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 2 * time.Second
	}
	var opts []plusclient.Option
	if cfg.HTTPClient != nil {
		opts = append(opts, plusclient.WithHTTPClient(cfg.HTTPClient))
	}
	if cfg.CAFile != "" {
		opts = append(opts, plusclient.WithCAFile(cfg.CAFile))
	}
	if cfg.Token != "" {
		opts = append(opts, plusclient.WithToken(cfg.Token))
	} else if cfg.Viewer != "" {
		opts = append(opts, plusclient.WithViewer(cfg.Viewer))
	}
	return &Replica{
		cfg:     cfg,
		client:  plusclient.New(cfg.Primary, opts...),
		backend: cfg.Backend,
		state:   StateBootstrapping,
	}, nil
}

func (r *Replica) logf(format string, args ...interface{}) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// State reports the lifecycle phase.
func (r *Replica) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *Replica) setState(s State) {
	r.mu.Lock()
	changed := r.state != s
	r.state = s
	r.mu.Unlock()
	if changed {
		r.logf("replica: %s", s)
	}
}

// Cursor reports the durable change-feed position of the last flush.
func (r *Replica) Cursor() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursor
}

// Lattice reports the privilege lattice adopted from the primary; valid
// after Start. Engines over the replicated backend must be built with
// it, or protection decisions would disagree across the fleet.
func (r *Replica) Lattice() *privilege.Lattice {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lattice
}

// stateFile is the StatePath payload: everything a restart needs that
// the backend itself does not persist.
type stateFile struct {
	Cursor  string      `json:"cursor"`
	Lattice [][2]string `json:"lattice"`
}

// loadState reads StatePath; (nil, nil) when unset or absent.
func (r *Replica) loadState() (*stateFile, error) {
	if r.cfg.StatePath == "" {
		return nil, nil
	}
	data, err := os.ReadFile(r.cfg.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("replica: state file: %w", err)
	}
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("replica: state file %s: %w", r.cfg.StatePath, err)
	}
	return &st, nil
}

// saveStateLocked writes the cursor sidecar atomically (temp + rename);
// mu must be held. A write failure is worth surfacing but never worth
// stopping replication over: the cost is a larger replay after restart.
func (r *Replica) saveStateLocked() {
	if r.cfg.StatePath == "" {
		return
	}
	st := stateFile{Cursor: r.cursor}
	if r.lattice != nil {
		st.Lattice = r.lattice.Pairs()
	}
	data, err := json.Marshal(st)
	if err != nil {
		r.logf("replica: encode state: %v", err)
		return
	}
	tmp := r.cfg.StatePath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		r.logf("replica: write state: %v", err)
		return
	}
	if err := os.Rename(tmp, r.cfg.StatePath); err != nil {
		r.logf("replica: write state: %v", err)
	}
}

// Start brings the local backend to a servable revision of the primary:
// resuming from the persisted cursor when the durable backend and state
// file both survived, bootstrapping from GET /v2/snapshot otherwise.
// After Start, Lattice is valid and the backend answers queries; Run
// keeps it current.
func (r *Replica) Start(ctx context.Context) error {
	if st, err := r.loadState(); err == nil && st != nil && st.Cursor != "" && r.backend.Revision() > 0 {
		lat, lerr := privilege.FromPairs(st.Lattice)
		cur, cerr := plus.DecodeCursor(st.Cursor)
		if lerr == nil && cerr == nil {
			r.mu.Lock()
			r.lattice = lat
			r.cursor = st.Cursor
			r.state = StateFollowing
			r.mu.Unlock()
			r.appliedRev.Store(cur.Rev)
			r.logf("replica: resuming from cursor rev %d (%d objects local)", cur.Rev, r.backend.NumObjects())
			return nil
		}
		r.logf("replica: ignoring unusable state file (lattice: %v, cursor: %v); bootstrapping", lerr, cerr)
	} else if err != nil {
		r.logf("replica: %v; bootstrapping", err)
	}
	r.setState(StateBootstrapping)
	snap, err := r.client.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("replica: bootstrap snapshot: %w", err)
	}
	lat, err := privilege.FromPairs(snap.Lattice)
	if err != nil {
		return fmt.Errorf("replica: primary lattice: %w", err)
	}
	r.mu.Lock()
	r.lattice = lat
	r.mu.Unlock()
	if err := r.rebase(snap); err != nil {
		return err
	}
	r.setState(StateFollowing)
	r.logf("replica: bootstrapped %d objects, %d edges at primary rev %d",
		len(snap.Objects), len(snap.Edges), snap.Revision)
	return nil
}

// Run drives the apply loop until ctx ends: Follow the primary's
// change feed, coalesce events into batched local applies, heal any
// follow failure by rebasing from a fresh snapshot, and keep retrying
// (serving the last applied state meanwhile) for as long as the
// primary might come back. Only divergence is fatal.
func (r *Replica) Run(ctx context.Context) error {
	if r.cfg.PollInterval > 0 {
		go r.pollPrimary(ctx)
	}
	consecutive := 0
	for {
		if ctx.Err() != nil {
			r.setState(StateStopped)
			return nil
		}
		r.setState(StateFollowing)
		err := r.client.Follow(ctx, r.Cursor(), plusclient.FollowOptions{
			Wait:  r.cfg.Wait,
			Stats: &r.stats,
		}, r.onEvent)
		if ctx.Err() != nil {
			r.setState(StateStopped)
			return nil
		}
		if errors.Is(err, ErrDiverged) {
			r.setState(StateFailed)
			return err
		}
		consecutive++
		r.logf("replica: follow interrupted (attempt %d): %v", consecutive, err)
		if consecutive > 3 {
			r.setState(StateDegraded)
		} else {
			r.setState(StateResyncing)
		}
		if rerr := r.resync(ctx); rerr != nil {
			if ctx.Err() != nil {
				r.setState(StateStopped)
				return nil
			}
			if errors.Is(rerr, ErrDiverged) {
				r.setState(StateFailed)
				return rerr
			}
			r.logf("replica: resync failed: %v", rerr)
			delay := time.Duration(consecutive) * time.Second
			if delay > 5*time.Second {
				delay = 5 * time.Second
			}
			select {
			case <-ctx.Done():
				r.setState(StateStopped)
				return nil
			case <-time.After(delay):
			}
			continue
		}
		consecutive = 0
	}
}

// onEvent is the Follow handler: buffer changes, flush on sync or when
// the buffer fills, rebase on resync.
func (r *Replica) onEvent(ev plusclient.Event) error {
	switch ev.Type {
	case plusclient.EventChange:
		r.observePrimaryRev(ev.Rev)
		r.mu.Lock()
		r.buf = append(r.buf, ev)
		var err error
		if len(r.buf) >= r.cfg.FlushEvery {
			err = r.flushLocked()
		} else if r.cfg.Coalesce > 0 && r.flushTimer == nil {
			// First event of a group-commit window: arm the deadline. The
			// timer flush cannot return its error to Follow, but a failed
			// flush keeps the buffer, so the next flush (or the loop's
			// resync heal) retries it.
			r.flushTimer = time.AfterFunc(r.cfg.Coalesce, func() {
				r.mu.Lock()
				r.flushTimer = nil
				ferr := r.flushLocked()
				r.mu.Unlock()
				if ferr != nil {
					r.logf("replica: coalesced flush: %v", ferr)
				}
			})
		}
		r.mu.Unlock()
		return err
	case plusclient.EventSync:
		r.observePrimaryRev(ev.Rev)
		if r.cfg.Coalesce > 0 {
			// Group commit: let the armed window flush; a sync with an
			// empty buffer has nothing to hold back anyway.
			r.updateLagClock()
			return nil
		}
		r.mu.Lock()
		err := r.flushLocked()
		r.mu.Unlock()
		r.updateLagClock()
		return err
	case plusclient.EventResync:
		r.setState(StateResyncing)
		r.mu.Lock()
		// Buffered events precede the snapshot's revision; it subsumes
		// them.
		r.buf = r.buf[:0]
		r.mu.Unlock()
		if err := r.rebase(ev.Snapshot); err != nil {
			return err
		}
		r.setState(StateFollowing)
	}
	return nil
}

// flushLocked applies the buffered change events as one idempotently
// filtered batch; mu must be held. The cursor only advances after the
// data is applied, so a crash between the two replays — and the filter
// absorbs the replay.
func (r *Replica) flushLocked() error {
	if r.flushTimer != nil {
		r.flushTimer.Stop()
		r.flushTimer = nil
	}
	if len(r.buf) == 0 {
		return nil
	}
	var batch plus.Batch
	for _, ev := range r.buf {
		switch {
		case ev.Object != nil:
			if cur, err := r.backend.GetObject(ev.Object.ID); err != nil || !objectsEqual(cur, *ev.Object) {
				batch.Objects = append(batch.Objects, *ev.Object)
			}
		case ev.Edge != nil:
			if !hasEdge(r.backend, *ev.Edge) {
				batch.Edges = append(batch.Edges, *ev.Edge)
			}
		case ev.Surrogate != nil:
			if !hasSurrogate(r.backend, *ev.Surrogate) {
				batch.Surrogates = append(batch.Surrogates, *ev.Surrogate)
			}
		}
	}
	if batch.Len() > 0 {
		if _, err := r.backend.Apply(batch); err != nil {
			return fmt.Errorf("replica: apply %d records: %w", batch.Len(), err)
		}
	}
	last := r.buf[len(r.buf)-1]
	n := len(r.buf)
	r.buf = r.buf[:0]
	r.cursor = last.Cursor
	r.appliedRev.Store(last.Rev)
	r.applied.Add(uint64(n))
	r.batches.Add(1)
	r.meter.Mark(n)
	r.updateLagClock()
	r.saveStateLocked()
	return nil
}

// resync drops buffered events and rebases from a fresh snapshot — the
// heal for apply failures and interrupted streams.
func (r *Replica) resync(ctx context.Context) error {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.mu.Unlock()
	snap, err := r.client.Snapshot(ctx)
	if err != nil {
		return err
	}
	r.extraResyncs.Add(1)
	return r.rebase(snap)
}

// rebase converges the local store onto a snapshot by applying only the
// records it is missing, as ordinary writes: revisions stay monotonic
// (a backend swap would rewind them and poison delta-scoped caches),
// and at-least-once redelivery stays harmless. Records are append-only,
// so a snapshot is a superset of any honest follower; local records the
// snapshot lacks mean divergence.
func (r *Replica) rebase(snap *plusclient.SnapshotResponse) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lattice != nil {
		lat, err := privilege.FromPairs(snap.Lattice)
		if err != nil {
			return fmt.Errorf("replica: primary lattice: %w", err)
		}
		if !samePairs(r.lattice.Pairs(), lat.Pairs()) {
			return fmt.Errorf("%w: primary lattice changed", ErrDiverged)
		}
	}
	var batch plus.Batch
	for _, o := range snap.Objects {
		if cur, err := r.backend.GetObject(o.ID); err != nil || !objectsEqual(cur, o) {
			batch.Objects = append(batch.Objects, o)
		}
	}
	for _, e := range snap.Edges {
		if !hasEdge(r.backend, e) {
			batch.Edges = append(batch.Edges, e)
		}
	}
	for _, sp := range snap.Surrogates {
		if !hasSurrogate(r.backend, sp) {
			batch.Surrogates = append(batch.Surrogates, sp)
		}
	}
	if batch.Len() > 0 {
		if _, err := r.backend.Apply(batch); err != nil {
			return fmt.Errorf("replica: rebase apply: %w", err)
		}
	}
	if r.backend.NumObjects() != len(snap.Objects) || r.backend.NumEdges() != len(snap.Edges) {
		return fmt.Errorf("%w: local %d objects/%d edges vs primary snapshot %d/%d",
			ErrDiverged, r.backend.NumObjects(), r.backend.NumEdges(), len(snap.Objects), len(snap.Edges))
	}
	r.cursor = snap.Cursor
	r.appliedRev.Store(snap.Revision)
	r.observePrimaryRev(snap.Revision)
	r.applied.Add(uint64(batch.Len()))
	if batch.Len() > 0 {
		r.batches.Add(1)
		r.meter.Mark(batch.Len())
	}
	r.updateLagClock()
	r.saveStateLocked()
	return nil
}

// pollPrimary keeps primaryRev honest while the feed idles or the
// stream is down: the healthz probe is principal-free and cheap.
func (r *Replica) pollPrimary(ctx context.Context) {
	t := time.NewTicker(r.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if h, err := r.client.Healthz(ctx); err == nil {
				r.observePrimaryRev(h.Revision)
			}
		}
	}
}

// observePrimaryRev raises primaryRev monotonically.
func (r *Replica) observePrimaryRev(rev uint64) {
	for {
		cur := r.primaryRev.Load()
		if rev <= cur {
			break
		}
		if r.primaryRev.CompareAndSwap(cur, rev) {
			break
		}
	}
	r.updateLagClock()
}

// updateLagClock starts or clears the behind-since stopwatch.
func (r *Replica) updateLagClock() {
	if r.appliedRev.Load() >= r.primaryRev.Load() {
		r.behindSince.Store(0)
	} else {
		r.behindSince.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// Health assembles the replication block served in healthz and rendered
// by plusctl status; safe to call from any goroutine.
func (r *Replica) Health() *plus.ReplicaHealth {
	applied, primary := r.appliedRev.Load(), r.primaryRev.Load()
	var lagRevs uint64
	if primary > applied {
		lagRevs = primary - applied
	}
	var lagSec float64
	if bs := r.behindSince.Load(); bs != 0 {
		lagSec = time.Since(time.Unix(0, bs)).Seconds()
	}
	return &plus.ReplicaHealth{
		Role:         "follower",
		Primary:      r.cfg.Primary,
		State:        string(r.State()),
		AppliedRev:   applied,
		PrimaryRev:   primary,
		LagRevisions: lagRevs,
		LagSeconds:   lagSec,
		Applied:      r.applied.Load(),
		Batches:      r.batches.Load(),
		ApplyPerSec:  r.meter.Rate(),
		Resyncs:      r.stats.Resyncs() + r.extraResyncs.Load(),
		Reconnects:   r.stats.Reconnects(),
	}
}

// DefaultStatePath places the cursor sidecar next to a durable store
// file (plusd derives it from -db when -follow-state is not given).
func DefaultStatePath(dbPath string) string {
	return filepath.Join(filepath.Dir(dbPath), filepath.Base(dbPath)+".replica")
}

// objectsEqual reports deep equality of two objects (Features compared
// by content).
func objectsEqual(a, b plus.Object) bool {
	if a.ID != b.ID || a.Kind != b.Kind || a.Name != b.Name ||
		a.Lowest != b.Lowest || a.Protect != b.Protect || len(a.Features) != len(b.Features) {
		return false
	}
	for k, v := range a.Features {
		if bv, ok := b.Features[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// hasEdge reports whether the store already holds the (from,to) edge —
// the store's own duplicate-edge identity.
func hasEdge(b plus.Backend, e plus.Edge) bool {
	for _, cur := range b.EdgesFrom(e.From) {
		if cur.To == e.To {
			return true
		}
	}
	return false
}

// hasSurrogate reports whether a deep-equal spec is already stored for
// the object (surrogates accumulate, so presence is the only identity).
func hasSurrogate(b plus.Backend, sp plus.SurrogateSpec) bool {
	for _, cur := range b.SurrogatesOf(sp.ForID) {
		if cur.ID == sp.ID && cur.Name == sp.Name && cur.Lowest == sp.Lowest &&
			cur.InfoScore == sp.InfoScore && len(cur.Features) == len(sp.Features) {
			same := true
			for k, v := range sp.Features {
				if cv, ok := cur.Features[k]; !ok || cv != v {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
	}
	return false
}

// samePairs compares two lattice pair sets order-insensitively.
func samePairs(a, b [][2]string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[[2]string]int, len(a))
	for _, p := range a {
		seen[p]++
	}
	for _, p := range b {
		if seen[p] == 0 {
			return false
		}
		seen[p]--
	}
	return true
}

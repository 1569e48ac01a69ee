package plus

// MemBackend is the volatile, serving-optimised storage engine: the store
// core (core.go) with nothing persisted. It offers the same contract as
// LogBackend minus durability (Size is 0 and contents die with the
// process), and the same snapshot isolation: lineage queries run over
// immutable revision-stamped snapshots that share the table's buckets. It
// implements Backend.
type MemBackend struct {
	storeCore
}

var _ Backend = (*MemBackend)(nil)

// NewMemBackend creates an empty in-memory backend. Its argument is
// unused; pass 0.
func NewMemBackend(int) *MemBackend {
	m := &MemBackend{}
	// Contents die with the process, so a cursor from an earlier life must
	// be refused, not resumed: every instance mints a fresh epoch.
	m.init(newEpoch())
	return m
}

// Size reports the durable footprint: always 0, the backend is volatile.
func (m *MemBackend) Size() int64 { return 0 }

// Close marks the backend closed; contents are discarded with the
// process. Double close is a no-op.
func (m *MemBackend) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shut()
	return nil
}

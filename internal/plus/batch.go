package plus

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Batch is a group of records applied with one lock acquisition, one
// buffered write and (with Options.Sync) one fsync — the group-commit path
// for bulk provenance ingestion. Objects are applied before edges and
// surrogates, so intra-batch references work.
type Batch struct {
	Objects    []Object
	Edges      []Edge
	Surrogates []SurrogateSpec
}

// Len reports the total number of records in the batch.
func (b *Batch) Len() int {
	return len(b.Objects) + len(b.Edges) + len(b.Surrogates)
}

// validate checks the whole batch against a backend's current state
// (seen through the two callbacks) plus the batch's own objects. It is
// shared by every Backend implementation; callers hold whatever locks
// make the callbacks stable.
func (b *Batch) validate(stored func(id string) bool, hasEdge func(from, to string) bool) error {
	inBatch := make(map[string]struct{}, len(b.Objects))
	for _, o := range b.Objects {
		if err := validateObject(o); err != nil {
			return fmt.Errorf("plus: batch: %w", err)
		}
		inBatch[o.ID] = struct{}{}
	}
	have := func(id string) bool {
		if _, ok := inBatch[id]; ok {
			return true
		}
		return stored(id)
	}
	batchEdges := map[[2]string]bool{}
	for _, e := range b.Edges {
		if e.From == e.To {
			return fmt.Errorf("plus: batch self edge %s", e.From)
		}
		if !have(e.From) || !have(e.To) {
			return fmt.Errorf("plus: batch edge %s->%s references missing object", e.From, e.To)
		}
		key := [2]string{e.From, e.To}
		if batchEdges[key] {
			return fmt.Errorf("plus: batch duplicate edge %s->%s", e.From, e.To)
		}
		batchEdges[key] = true
		if hasEdge(e.From, e.To) {
			return fmt.Errorf("plus: batch edge %s->%s already stored", e.From, e.To)
		}
	}
	for _, sp := range b.Surrogates {
		if err := validateSurrogate(sp); err != nil {
			return fmt.Errorf("plus: batch: %w", err)
		}
		if !have(sp.ForID) {
			return fmt.Errorf("plus: batch surrogate for missing object %s", sp.ForID)
		}
	}
	return nil
}

// Apply validates the whole batch against the store's current state (plus
// the batch's own objects), then appends every record with a single
// buffered write, returning the revision after the batch's last record.
// Validation failures leave the store untouched. A crash mid-write leaves
// a torn tail that replay truncates, so a batch is atomic-on-recovery
// only up to the records that fully made it to disk — the same guarantee
// individual appends give.
func (s *LogBackend) Apply(b Batch) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if err := b.validate(s.tab.has, s.tab.hasEdge); err != nil {
		return 0, err
	}

	// Encode everything into one buffer, then write once.
	var buf []byte
	type applied struct {
		kind byte
		body []byte
	}
	var records []applied
	encode := func(kind byte, v interface{}) error {
		body, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("plus: batch encode: %w", err)
		}
		payload := append([]byte{kind}, body...)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
		records = append(records, applied{kind: kind, body: body})
		return nil
	}
	for _, o := range b.Objects {
		if err := encode(recObject, o); err != nil {
			return 0, err
		}
	}
	for _, e := range b.Edges {
		if err := encode(recEdge, e); err != nil {
			return 0, err
		}
	}
	for _, sp := range b.Surrogates {
		if err := encode(recSurrogate, sp); err != nil {
			return 0, err
		}
	}
	if len(buf) == 0 {
		return s.revision.Load(), nil
	}
	if _, err := s.f.Write(buf); err != nil {
		return 0, fmt.Errorf("plus: batch write: %w", err)
	}
	if s.sync {
		if err := s.f.Sync(); err != nil {
			return 0, fmt.Errorf("plus: batch sync: %w", err)
		}
	}
	s.size += int64(len(buf))
	for _, r := range records {
		if err := s.apply(r.kind, r.body); err != nil {
			// Unreachable: the same bytes were just validated and encoded.
			return 0, err
		}
	}
	s.broadcast()
	return s.revision.Load(), nil
}

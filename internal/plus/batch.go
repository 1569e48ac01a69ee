package plus

import "fmt"

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

// validate checks the whole batch against the store's current state
// (seen through the two callbacks) plus the batch's own objects; callers
// hold the lock that keeps the callbacks stable.
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

// checkSurrogateIDs refuses a surrogate whose id names an object, stored
// or in the batch itself. Only client ingest runs it: Apply must not,
// because followers apply a primary's records through Apply, and a primary
// may hold such a surrogate — stored before its object, which no check
// can refuse, or by a log written before this one existed. The engine
// never applies such a surrogate either way (account's selectSurrogate),
// so a concurrent write of the object between this check and the apply is
// harmless.
func (b *Batch) checkSurrogateIDs(stored func(id string) bool) error {
	if len(b.Surrogates) == 0 {
		return nil
	}
	inBatch := make(map[string]struct{}, len(b.Objects))
	for _, o := range b.Objects {
		inBatch[o.ID] = struct{}{}
	}
	for _, sp := range b.Surrogates {
		if _, ok := inBatch[sp.ID]; ok || stored(sp.ID) {
			return errSurrogateNamesObject(sp)
		}
	}
	return nil
}

package plus

import (
	"hash/maphash"
	"maps"
	"slices"
	"sync/atomic"
)

// This file holds the one record table both backends store into. It is
// copy-on-write by hash bucket: a snapshot freezes the bucket pointers, a
// later write copies the one bucket it lands in and leaves the rest
// shared, so the first read after a write costs a pointer copy instead of
// a copy of the store.
//
// The table takes no locks. The store core (core.go) serialises writers
// against each other, against readers and against freeze with its one
// mutex. Only the counters are atomic: metric scrapes and the O(1) counts
// read them without a lock.

// tableBuckets is fixed rather than grown. A snapshot copies one pointer
// per bucket — 4 096 × 8 B = 32 KB, flat in the store's size — and a write
// after a snapshot copies one bucket's records: N/4 096 ids, 2.5 at 10 k
// objects and 250 at 1 M. Fewer buckets make the write copy more, more
// make every snapshot copy more; both stay in the microseconds from a
// thousand objects to a few million.
const tableBuckets = 1 << 12

// bucket is one hash slice of the store: the records of the ids that hash
// to it, and the name postings of the names that hash to it. Adjacency,
// surrogate and posting slices are append-only, so a copied bucket shares
// their backing arrays with its original: the copy appends past the
// original's length, which the original's readers never look at. An id
// leaves a posting only by the posting being replaced with a new slice.
type bucket struct {
	// gen is the table generation the bucket was made in. Every snapshot
	// moves the table to a new generation, so a bucket of an older one may
	// be shared with a snapshot and is never written again.
	gen        uint64
	objects    map[string]Object
	out        map[string][]Edge // keyed by From
	in         map[string][]Edge // keyed by To
	surrogates map[string][]SurrogateSpec
	names      map[string][]string // name -> ids of the objects carrying it, unordered
	// objectKeep and surrogateKeep hold the keep bits (shape.go) of the
	// rare records that have any: by object id, and by ForID one entry
	// per surrogate index up to the last that has bits. Both stay nil in
	// a bucket that never held such a record, so copying it costs nothing.
	objectKeep    map[string]uint8
	surrogateKeep map[string][]uint8
}

// emptyBucket stands in every slot nothing has been stored in; its
// generation 0 is older than any table's, so the first write copies it.
var emptyBucket = bucket{
	objects: map[string]Object{}, out: map[string][]Edge{}, in: map[string][]Edge{},
	surrogates: map[string][]SurrogateSpec{}, names: map[string][]string{},
}

func (b *bucket) hasEdge(from, to string) bool {
	for _, e := range b.out[from] {
		if e.To == to {
			return true
		}
	}
	return false
}

// bucketSet is the id → bucket directory: the live table has one and
// every snapshot holds a frozen copy of it. The array is its own 32 KB
// allocation, the largest the allocator still serves from a size class; a
// byte more and every snapshot would take the large-object path.
type bucketSet struct {
	seed maphash.Seed
	at   *[tableBuckets]*bucket
}

// slot hashes an id, or a name, to its bucket index. Callers that both
// read and write a bucket hash once and index at themselves.
func (bs *bucketSet) slot(id string) int {
	return int(maphash.String(bs.seed, id) & (tableBuckets - 1))
}

func (bs *bucketSet) of(id string) *bucket { return bs.at[bs.slot(id)] }

// eachObject visits every object, as stored, in unspecified order.
func (bs *bucketSet) eachObject(visit func(Object)) {
	for _, b := range bs.at {
		for _, o := range b.objects {
			visit(o)
		}
	}
}

// objectList returns every object as posted; n sizes the slice.
func (bs *bucketSet) objectList(n int) []Object {
	out := make([]Object, 0, n)
	for _, b := range bs.at {
		for _, o := range b.objects {
			out = append(out, b.postedObject(o))
		}
	}
	return out
}

// postedObject returns the bucket's stored object o as it was posted.
func (b *bucket) postedObject(o Object) Object { return unshapeObject(o, b.objectKeep[o.ID]) }

// postedSurrogates returns the surrogates of id as they were posted: the
// stored slice itself when none carries features, else a copy.
func (b *bucket) postedSurrogates(id string) []SurrogateSpec {
	ss := b.surrogates[id]
	i := slices.IndexFunc(ss, func(sp SurrogateSpec) bool { return sp.Features != nil })
	if i < 0 {
		return ss
	}
	out := slices.Clone(ss)
	keep := b.surrogateKeep[id]
	for ; i < len(out); i++ {
		var k uint8
		if i < len(keep) {
			k = keep[i]
		}
		out[i] = unshapeSurrogate(out[i], k)
	}
	return out
}

// table is the live, writable bucketSet with its generation and counts.
type table struct {
	bucketSet
	gen uint64

	objects, edges, named atomic.Int64

	snapshots, bucketCopies, recordsCopied, nameProbes atomic.Uint64
}

func newTable() *table {
	t := &table{gen: 1}
	t.seed, t.at = maphash.MakeSeed(), new([tableBuckets]*bucket)
	for i := range t.at {
		t.at[i] = &emptyBucket
	}
	return t
}

// own returns slot i's bucket ready to be written: the bucket itself when
// it was made in this generation, a copy of it put in its place when a
// snapshot may still hold it.
func (t *table) own(i int) *bucket {
	b := t.at[i]
	if b.gen == t.gen {
		return b
	}
	if n := len(b.objects) + len(b.out) + len(b.in) + len(b.surrogates) + len(b.names); n > 0 {
		t.bucketCopies.Add(1)
		t.recordsCopied.Add(uint64(n))
	}
	b = &bucket{
		gen: t.gen, objects: maps.Clone(b.objects), out: maps.Clone(b.out), in: maps.Clone(b.in),
		surrogates: maps.Clone(b.surrogates), names: maps.Clone(b.names),
		objectKeep: maps.Clone(b.objectKeep), surrogateKeep: maps.Clone(b.surrogateKeep),
	}
	t.at[i] = b
	return b
}

// putObject stores shaped object o and its keep bits in slot i (its
// id's) and moves its id from the posting of the name it replaced to the
// posting of its own name, each in that name's slot.
func (t *table) putObject(i int, o Object, keep uint8) {
	b := t.own(i)
	prev, replaced := b.objects[o.ID]
	b.objects[o.ID] = o
	if !replaced {
		t.objects.Add(1)
	}
	if keep != 0 {
		if b.objectKeep == nil {
			b.objectKeep = map[string]uint8{}
		}
		b.objectKeep[o.ID] = keep
	} else {
		delete(b.objectKeep, o.ID)
	}
	if prev.Name == o.Name {
		return
	}
	if prev.Name != "" {
		pb := t.own(t.slot(prev.Name))
		ids := pb.names[prev.Name]
		if len(ids) == 1 {
			delete(pb.names, prev.Name)
		} else {
			// A new slice, never a delete in place: a snapshot may share
			// the old one's backing array.
			k := slices.Index(ids, o.ID)
			pb.names[prev.Name] = slices.Concat(ids[:k], ids[k+1:])
		}
		t.named.Add(-1)
	}
	if o.Name != "" {
		nb := t.own(t.slot(o.Name))
		nb.names[o.Name] = append(nb.names[o.Name], o.ID)
		t.named.Add(1)
	}
}

// putEdge stores e under its From in slot fi and under its To in slot ti.
func (t *table) putEdge(fi, ti int, e Edge) {
	b := t.own(fi)
	b.out[e.From] = append(b.out[e.From], e)
	b = t.own(ti)
	b.in[e.To] = append(b.in[e.To], e)
	t.edges.Add(1)
}

// putSurrogate stores shaped surrogate sp and its keep bits in slot i
// (its ForID's).
func (t *table) putSurrogate(i int, sp SurrogateSpec, keep uint8) {
	b := t.own(i)
	at := len(b.surrogates[sp.ForID])
	b.surrogates[sp.ForID] = append(b.surrogates[sp.ForID], sp)
	if keep != 0 {
		if b.surrogateKeep == nil {
			b.surrogateKeep = map[string][]uint8{}
		}
		// Append-only like the surrogate list, so a snapshot's copy of
		// the bucket never sees an entry change.
		bits := b.surrogateKeep[sp.ForID]
		bits = append(bits, make([]uint8, at-len(bits))...)
		b.surrogateKeep[sp.ForID] = append(bits, keep)
	}
}

// has and hasEdge are the stored-state callbacks of Batch.validate.
func (t *table) has(id string) bool {
	_, ok := t.of(id).objects[id]
	return ok
}

func (t *table) hasEdge(from, to string) bool { return t.of(from).hasEdge(from, to) }

// freeze returns the table's contents as an immutable snapshot and starts
// a new generation, so the next write to any bucket copies it first. No
// writer may run beside it.
func (t *table) freeze(source *storeCore, rev uint64) *Snapshot {
	at := *t.at
	sn := &Snapshot{bucketSet: bucketSet{t.seed, &at}, rev: rev, objects: int(t.objects.Load()), source: source}
	t.gen++
	t.snapshots.Add(1)
	return sn
}

// FindByName returns the ids of the snapshot's objects named name, in
// unspecified order; an empty name (unnamed objects are not posted)
// returns nil. The slice is the caller's.
func (sn *Snapshot) FindByName(name string) []string {
	sn.source.tab.nameProbes.Add(1)
	if name == "" {
		return nil
	}
	return slices.Clone(sn.of(name).names[name])
}

// StoreStats counts what snapshots cost the record table: how many were
// built, and how many buckets — holding how many records (map entries:
// an object, one id's adjacency or surrogate list, or one name's posting)
// — writes had to copy because a snapshot still shared them.
type StoreStats struct {
	SnapshotsBuilt uint64 `json:"snapshotsBuilt"`
	BucketCopies   uint64 `json:"bucketCopies"`
	RecordsCopied  uint64 `json:"recordsCopied"`
}

func (t *table) stats() StoreStats {
	return StoreStats{
		SnapshotsBuilt: t.snapshots.Load(),
		BucketCopies:   t.bucketCopies.Load(),
		RecordsCopied:  t.recordsCopied.Load(),
	}
}

// IndexStats reports the table's name postings, surfaced through the
// healthz probe, plusctl status and the metrics registry.
type IndexStats struct {
	// NameEntries counts postings: one per named object.
	NameEntries int `json:"nameEntries"`
	// Hits counts FindByName probes.
	Hits uint64 `json:"hits"`
	// Misses, Advances and Rebuilds are always 0: the postings are
	// versioned with the table, so no probe falls back to a scan, catches
	// up or rebuilds. They remain only because the benchmark reads them.
	Misses   uint64 `json:"misses"`
	Advances uint64 `json:"advances"`
	Rebuilds uint64 `json:"rebuilds"`
}

func (t *table) indexStats() IndexStats {
	return IndexStats{NameEntries: int(t.named.Load()), Hits: t.nameProbes.Load()}
}

package plus_test

import (
	"fmt"
	"testing"

	"repro/internal/plus"
	"repro/internal/workload"
)

// TestIndexMaintenanceOverheadGuard bounds what keeping the name postings
// costs a write; no clock is read. A name's posting lives in its name's
// slot of the record table, copied on write like every other record, so
// after a snapshot a one-object PutObject copies at most two buckets (its
// id's and its name's) and a rename at most three (the old name's too).
// A 256-object named batch, plus the snapshot after it, allocates at most
// 16 more per object than the same batch unnamed does on a store of
// unnamed objects (≈9 measured: each name's slot is one more bucket to
// copy). Postings rebuilt per snapshot cost allocations in the store's
// 2 000 names, not in the batch, and fail the bound.
func TestIndexMaintenanceOverheadGuard(t *testing.T) {
	const nodes, pool, batch = 10_000, 2_000, 256
	load := func(named bool) *plus.MemBackend {
		b := plus.NewMemBackend(0)
		t.Cleanup(func() { b.Close() })
		err := workload.GenerateLarge(workload.LargeConfig{Nodes: nodes, EdgesPerNode: 1, NamePool: pool, Seed: 3, BatchSize: 1024},
			func(batch plus.Batch) error {
				if !named {
					for i := range batch.Objects {
						batch.Objects[i].Name = ""
					}
				}
				_, err := b.Apply(batch)
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	named := load(true)

	for i := 0; i < 50; i++ {
		if _, err := named.Snapshot(); err != nil {
			t.Fatal(err)
		}
		copies := named.StoreStats().BucketCopies
		if err := named.PutObject(plus.Object{ID: fmt.Sprintf("one%d", i), Kind: plus.Data, Name: workload.LargeName(i)}); err != nil {
			t.Fatal(err)
		}
		if d := named.StoreStats().BucketCopies - copies; d > 2 {
			t.Fatalf("a new named object after a snapshot copied %d buckets, want at most 2", d)
		}
		if _, err := named.Snapshot(); err != nil {
			t.Fatal(err)
		}
		copies = named.StoreStats().BucketCopies
		if err := named.PutObject(plus.Object{ID: workload.LargeNodeID(i), Kind: plus.Data, Name: workload.LargeName(pool + i)}); err != nil {
			t.Fatal(err)
		}
		if d := named.StoreStats().BucketCopies - copies; d > 3 {
			t.Fatalf("a rename after a snapshot copied %d buckets, want at most 3", d)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	unnamed := load(false)
	const runs = 10
	allocs := func(b *plus.MemBackend, withNames bool) float64 {
		batches := make([]plus.Batch, runs+1) // AllocsPerRun calls once more to warm up
		for r := range batches {
			for i := 0; i < batch; i++ {
				o := plus.Object{ID: fmt.Sprintf("r%d-%d", r, i), Kind: plus.Data}
				if withNames {
					o.Name = workload.LargeName((r*batch + i) % pool)
				}
				batches[r].Objects = append(batches[r].Objects, o)
			}
		}
		return testing.AllocsPerRun(runs, func() {
			if _, err := b.Apply(batches[0]); err != nil {
				t.Fatal(err)
			}
			batches = batches[1:]
			if _, err := b.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	withNames, without := allocs(named, true), allocs(unnamed, false)
	perObject := (withNames - without) / batch
	t.Logf("%d-object Apply + Snapshot: %.0f allocations named, %.0f unnamed: %.1f more per named object", batch, withNames, without, perObject)
	if perObject > 16 {
		t.Errorf("a named batch allocates %.1f more per object than the same batch unnamed, want at most 16: the postings cost more than a bucket copy per name", perObject)
	}
}

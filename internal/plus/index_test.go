package plus

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// These are the name postings' own tests, over both backends. The
// postings live in the record table's buckets (table.go), so a snapshot's
// FindByName is exact by construction: the table tests check it against a
// model on every held snapshot, and these check it against a scan of the
// same snapshot.

// sortedIDs normalises an unordered posting list for comparison.
func sortedIDs(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

// scanByName is the linear-scan reference the postings are checked
// against.
func scanByName(sn *Snapshot, name string) []string {
	var out []string
	for _, o := range sn.Objects() {
		if o.Name == name {
			out = append(out, o.ID)
		}
	}
	return sortedIDs(out)
}

func indexTestBackends(t *testing.T) map[string]Backend {
	t.Helper()
	lb, err := Open(filepath.Join(t.TempDir(), "plus.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.Close() })
	mb := NewMemBackend(0)
	t.Cleanup(func() { mb.Close() })
	return map[string]Backend{"log": lb, "mem": mb}
}

func TestFindByIndexBasics(t *testing.T) {
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				kind := Data
				if i%3 == 0 {
					kind = Invocation
				}
				o := Object{
					ID:   fmt.Sprintf("o%02d", i),
					Kind: kind,
					Name: fmt.Sprintf("n%d", i%5),
					Features: map[string]string{
						"owner": fmt.Sprintf("u%d", i%4),
					},
				}
				if err := b.PutObject(o); err != nil {
					t.Fatal(err)
				}
			}
			sn, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedIDs(sn.FindByName("n2")), scanByName(sn, "n2"); !equalStrings(got, want) {
				t.Fatalf("FindByName = %v, want %v", got, want)
			}
			// Unnamed objects are not posted.
			if got := sn.FindByName(""); got != nil {
				t.Fatalf("FindByName(\"\") = %v, want nil", got)
			}
			if got := sn.FindByName("never-stored-name-xyzzy"); len(got) != 0 {
				t.Fatalf("unknown name matched %v", got)
			}
			st := mustIndexStats(t, b)
			if st.Hits != 3 {
				t.Fatalf("hits = %d, want one per probe (3)", st.Hits)
			}
			if st.NameEntries != 20 {
				t.Fatalf("name entries = %d, want 20", st.NameEntries)
			}
		})
	}
}

func mustIndexStats(t *testing.T, b Backend) IndexStats {
	t.Helper()
	p, ok := b.(storeStatsProvider)
	if !ok {
		t.Fatalf("backend %T has no index stats", b)
	}
	return p.IndexStats()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexAdvancesIncrementally: every write is in the next snapshot's
// postings, with no probe in between to catch them up.
func TestIndexAdvancesIncrementally(t *testing.T) {
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			for i := 0; i <= 5; i++ {
				o := Object{ID: fmt.Sprintf("o%03d", i), Kind: Data, Name: fmt.Sprintf("n%d", i%2)}
				if err := b.PutObject(o); err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					continue // two writes between some probes
				}
				sn, _ := b.Snapshot()
				for _, n := range []string{"n0", "n1"} {
					if got, want := sortedIDs(sn.FindByName(n)), scanByName(sn, n); !equalStrings(got, want) || len(got) != (i+1)/2 {
						t.Fatalf("after %d writes FindByName(%s) = %v, want %v", i+1, n, got, want)
					}
				}
			}
			if st := mustIndexStats(t, b); st.Misses != 0 || st.Advances != 0 || st.Rebuilds != 0 {
				t.Fatalf("index stats = %+v, want no misses, advances or rebuilds", st)
			}
		})
	}
}

// TestIndexRebuildOnTooFarBehind: the postings do not read the change
// feed, so a feed that retains nothing leaves every probe exact.
func TestIndexRebuildOnTooFarBehind(t *testing.T) {
	type horizoned interface {
		Backend
		SetChangeHorizon(int)
	}
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			b.(horizoned).SetChangeHorizon(0) // retain nothing: every delta request fails
			put := func(i int, name string) {
				o := Object{ID: fmt.Sprintf("o%03d", i), Kind: Data, Name: name}
				if err := b.PutObject(o); err != nil {
					t.Fatal(err)
				}
			}
			put(0, "first")
			sn, _ := b.Snapshot()
			if got := sn.FindByName("first"); len(got) != 1 {
				t.Fatalf("initial probe found %v", got)
			}
			for i := 1; i <= 10; i++ {
				put(i, fmt.Sprintf("bulk%d", i))
			}
			put(0, "bulk7")
			sn, _ = b.Snapshot()
			if _, err := sn.DeltaSince(sn.Revision() - 1); err != ErrTooFarBehind {
				t.Fatalf("DeltaSince = %v, want ErrTooFarBehind", err)
			}
			if got := sortedIDs(sn.FindByName("bulk7")); !equalStrings(got, []string{"o000", "o007"}) {
				t.Fatalf("probe past the feed returned %v, want [o000 o007]", got)
			}
			if got := sn.FindByName("first"); len(got) != 0 {
				t.Fatalf("renamed object still posted under its old name: %v", got)
			}
		})
	}
}

// TestIndexStaleSnapshotFallsBack holds an old snapshot while newer
// writes move postings, and checks the old snapshot still answers from
// its own postings, as of its revision.
func TestIndexStaleSnapshotFallsBack(t *testing.T) {
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			for _, id := range []string{"a", "c"} {
				if err := b.PutObject(Object{ID: id, Kind: Data, Name: "same"}); err != nil {
					t.Fatal(err)
				}
			}
			old, _ := b.Snapshot()
			if err := b.PutObject(Object{ID: "b", Kind: Data, Name: "same"}); err != nil {
				t.Fatal(err)
			}
			if err := b.PutObject(Object{ID: "a", Kind: Data, Name: "other"}); err != nil {
				t.Fatal(err)
			}
			cur, _ := b.Snapshot()
			if got := sortedIDs(cur.FindByName("same")); !equalStrings(got, []string{"b", "c"}) {
				t.Fatalf("current probe = %v, want [b c]", got)
			}
			// The stale snapshot sees neither "b" nor a's rename.
			if got := sortedIDs(old.FindByName("same")); !equalStrings(got, []string{"a", "c"}) {
				t.Fatalf("stale probe = %v, want [a c]", got)
			}
			if got := old.FindByName("other"); len(got) != 0 {
				t.Fatalf("stale probe of a later name = %v, want none", got)
			}
		})
	}
}

// TestIndexReplacementMovesPostings replaces an object with a new name,
// then clears it, and checks the old postings are unpublished.
func TestIndexReplacementMovesPostings(t *testing.T) {
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			o := Object{ID: "x", Kind: Data, Name: "before", Features: map[string]string{"stage": "raw"}}
			if err := b.PutObject(o); err != nil {
				t.Fatal(err)
			}
			o2 := Object{ID: "x", Kind: Invocation, Name: "after", Features: map[string]string{"stage": "cooked"}}
			if err := b.PutObject(o2); err != nil {
				t.Fatal(err)
			}
			sn, _ := b.Snapshot()
			checks := []struct {
				got  []string
				want []string
				what string
			}{
				{sn.FindByName("before"), nil, "name before"},
				{sn.FindByName("after"), []string{"x"}, "name after"},
			}
			for _, c := range checks {
				if !equalStrings(sortedIDs(c.got), c.want) {
					t.Fatalf("%s = %v, want %v", c.what, c.got, c.want)
				}
			}
			if err := b.PutObject(Object{ID: "x", Kind: Data}); err != nil {
				t.Fatal(err)
			}
			sn, _ = b.Snapshot()
			if got := sn.FindByName("after"); len(got) != 0 {
				t.Fatalf("name after = %v once x is unnamed, want none", got)
			}
			if st := mustIndexStats(t, b); st.NameEntries != 0 {
				t.Fatalf("name entries = %d once x is unnamed, want 0", st.NameEntries)
			}
		})
	}
}

// TestIndexRandomizedParity drives a random mutation sequence — renames,
// clears to "" and re-stores — keeps every snapshot it takes with a scan
// of it, and after every write checks each held snapshot's answers
// against that scan: a posting changed in place under a snapshot that
// shares it shows here.
func TestIndexRandomizedParity(t *testing.T) {
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			kinds := []ObjectKind{Data, Invocation}
			names := []string{"alpha", "beta", "gamma", ""}
			owners := []string{"alice", "bob", "carol"}
			type heldScan struct {
				sn   *Snapshot
				scan map[string][]string
			}
			var held []heldScan
			for step := 0; step < 200; step++ {
				id := fmt.Sprintf("o%02d", rng.Intn(40)) // collisions force replacements
				o := Object{
					ID:   id,
					Kind: kinds[rng.Intn(len(kinds))],
					Name: names[rng.Intn(len(names))],
				}
				if rng.Intn(3) > 0 {
					o.Features = map[string]string{"owner": owners[rng.Intn(len(owners))]}
					if rng.Intn(2) == 0 {
						o.Features["stage"] = fmt.Sprintf("s%d", rng.Intn(3))
					}
				}
				if err := b.PutObject(o); err != nil {
					t.Fatal(err)
				}
				if step%7 == 0 {
					sn, err := b.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					h := heldScan{sn, map[string][]string{}}
					for _, n := range names[:3] {
						h.scan[n] = scanByName(sn, n)
					}
					held = append(held, h)
				}
				for _, h := range held {
					for _, n := range names[:3] {
						if got, want := sortedIDs(h.sn.FindByName(n)), h.scan[n]; !equalStrings(got, want) {
							t.Fatalf("step %d: snapshot@%d FindByName(%s) = %v, want %v", step, h.sn.Revision(), n, got, want)
						}
					}
				}
			}
			if len(held) < 20 {
				t.Fatalf("only %d snapshots held", len(held))
			}
		})
	}
}

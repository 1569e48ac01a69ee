package plus

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// sortedIDs normalises an unordered posting list for comparison.
func sortedIDs(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

// scanByName is the linear-scan reference the index is checked against.
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
			// Unnamed objects are not posted; asking for them scans.
			if got, want := sortedIDs(sn.FindByName("")), scanByName(sn, ""); !equalStrings(got, want) {
				t.Fatalf("FindByName(\"\") = %v, want %v", got, want)
			}
			// Constants never stored anywhere answer empty without scanning.
			if got := sn.FindByName("never-stored-name-xyzzy"); len(got) != 0 {
				t.Fatalf("unknown name matched %v", got)
			}
			st := mustIndexStats(t, b)
			if st.Hits == 0 {
				t.Fatalf("no index hits recorded: %+v", st)
			}
			if st.Builds != 1 {
				t.Fatalf("builds = %d, want 1", st.Builds)
			}
			if st.NameEntries != 20 {
				t.Fatalf("name entries = %d, want 20", st.NameEntries)
			}
		})
	}
}

func mustIndexStats(t *testing.T, b Backend) IndexStats {
	t.Helper()
	p, ok := b.(indexStatsProvider)
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

// TestIndexAdvancesIncrementally proves later probes catch up through the
// change feed instead of rebuilding.
func TestIndexAdvancesIncrementally(t *testing.T) {
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			put := func(i int) {
				o := Object{ID: fmt.Sprintf("o%03d", i), Kind: Data, Name: fmt.Sprintf("n%d", i%2)}
				if err := b.PutObject(o); err != nil {
					t.Fatal(err)
				}
			}
			put(0)
			sn, _ := b.Snapshot()
			sn.FindByName("n0") // first probe: initial build
			for i := 1; i <= 5; i++ {
				put(i)
				sn, _ = b.Snapshot()
				if got := sortedIDs(sn.FindByName(fmt.Sprintf("n%d", i%2))); len(got) != i/2+1 {
					t.Fatalf("after %d writes FindByName returned %d ids", i, len(got))
				}
			}
			st := mustIndexStats(t, b)
			if st.Builds != 1 || st.Rebuilds != 0 {
				t.Fatalf("builds=%d rebuilds=%d, want 1/0", st.Builds, st.Rebuilds)
			}
			if st.Advances != 5 {
				t.Fatalf("advances = %d, want 5", st.Advances)
			}
		})
	}
}

// TestIndexRebuildOnTooFarBehind is the regression test for the hazard
// path: with a tiny change horizon the feed ages out between probes and
// the index must rebuild from the probing snapshot instead of serving a
// stale answer.
func TestIndexRebuildOnTooFarBehind(t *testing.T) {
	type horizoned interface {
		Backend
		SetChangeHorizon(int)
	}
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			hb := b.(horizoned)
			hb.SetChangeHorizon(0) // retain nothing: every delta request fails
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
			// Age the feed past the index: with horizon 0, DeltaSince from
			// the index's revision must fail with ErrTooFarBehind.
			for i := 1; i <= 10; i++ {
				put(i, fmt.Sprintf("bulk%d", i))
			}
			sn, _ = b.Snapshot()
			if _, err := sn.DeltaSince(sn.Revision() - 1); err != ErrTooFarBehind {
				t.Fatalf("DeltaSince = %v, want ErrTooFarBehind", err)
			}
			if got := sn.FindByName("bulk7"); !equalStrings(got, []string{"o007"}) {
				t.Fatalf("post-hazard probe returned %v, want [o007]", got)
			}
			st := mustIndexStats(t, b)
			if st.Rebuilds == 0 {
				t.Fatalf("no rebuild recorded after feed aged out: %+v", st)
			}
			if st.Rev != sn.Revision() {
				t.Fatalf("index rev %d, snapshot rev %d", st.Rev, sn.Revision())
			}
		})
	}
}

// TestIndexStaleSnapshotFallsBack holds an old snapshot while newer
// probes advance the index, then checks the old snapshot still answers
// correctly (by scan) and the fallback is counted as a miss.
func TestIndexStaleSnapshotFallsBack(t *testing.T) {
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			if err := b.PutObject(Object{ID: "a", Kind: Data, Name: "same"}); err != nil {
				t.Fatal(err)
			}
			old, _ := b.Snapshot()
			if err := b.PutObject(Object{ID: "b", Kind: Data, Name: "same"}); err != nil {
				t.Fatal(err)
			}
			cur, _ := b.Snapshot()
			// Advance the index to the current revision.
			if got := sortedIDs(cur.FindByName("same")); !equalStrings(got, []string{"a", "b"}) {
				t.Fatalf("current probe = %v", got)
			}
			before := mustIndexStats(t, b)
			// The stale snapshot must not see "b".
			if got := sortedIDs(old.FindByName("same")); !equalStrings(got, []string{"a"}) {
				t.Fatalf("stale probe = %v, want [a]", got)
			}
			after := mustIndexStats(t, b)
			if after.Misses != before.Misses+1 {
				t.Fatalf("stale probe not counted as miss: %+v -> %+v", before, after)
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
			sn, _ := b.Snapshot()
			sn.FindByName("before") // build
			o2 := Object{ID: "x", Kind: Invocation, Name: "after", Features: map[string]string{"stage": "cooked"}}
			if err := b.PutObject(o2); err != nil {
				t.Fatal(err)
			}
			sn, _ = b.Snapshot()
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

// TestIndexRandomizedParity drives a random mutation sequence and checks
// after every step that the index-served answers are identical to linear
// scans for a panel of probes — the storage half of the parity
// guarantee (the PLUSQL half lives in internal/plusql).
func TestIndexRandomizedParity(t *testing.T) {
	for label, b := range indexTestBackends(t) {
		t.Run(label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			kinds := []ObjectKind{Data, Invocation}
			names := []string{"alpha", "beta", "gamma", ""}
			owners := []string{"alice", "bob", "carol"}
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
				if step%7 != 0 {
					continue // probe every few steps, not after every write
				}
				sn, err := b.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range names[:3] {
					if got, want := sortedIDs(sn.FindByName(n)), scanByName(sn, n); !equalStrings(got, want) {
						t.Fatalf("step %d: FindByName(%s) = %v, want %v", step, n, got, want)
					}
				}
			}
			st := mustIndexStats(t, b)
			if st.Hits == 0 {
				t.Fatalf("parity run never hit the index: %+v", st)
			}
		})
	}
}

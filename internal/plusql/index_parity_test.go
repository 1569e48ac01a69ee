package plusql

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/plus"
	"repro/internal/privilege"
)

// indexedStats is testStats plus secondary-index cardinalities, for the
// planner goldens that exercise the index-aware cost model.
var indexedStats = Stats{
	Nodes: 1000,
	Edges: 2500,
	ByKind: map[string]int{
		"data":       400,
		"invocation": 100,
	},
	NameCount: func(name string) int {
		return map[string]int{"raw": 2}[name]
	},
	AttrCount: func(key, value string) int {
		if key == "owner" && value == "alice" {
			return 5
		}
		return 0
	},
}

// TestPlanIndexedGolden pins the planner's behaviour when the view
// exposes name/attr secondary indexes: selective predicates become the
// generator, lowered to index scans instead of pushed filters.
func TestPlanIndexedGolden(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			// With a name index the 2-row name posting beats the 400-row
			// kind index as the generator; everything else folds in.
			name: "name_index_wins",
			src:  `node(X), attr(X, "owner", "alice"), kind(X, data), name(X, "raw")`,
			want: "plan (planned):\n" +
				"  1. scan X [name=raw] push[attr(X, \"owner\", \"alice\"); kind(X, \"data\")] (est 2)\n" +
				"  project X\n",
		},
		{
			// A selective attr posting anchors the closure instead of the
			// other way round.
			name: "attr_index_anchors_closure",
			src:  `attr(X, "owner", "alice"), ancestor*(X, "t")`,
			want: "plan (planned):\n" +
				"  1. scan X [attr owner=alice] (est 5)\n" +
				"  2. check ancestor*(X, \"t\") (est 1)\n" +
				"  project X\n",
		},
		{
			// A name absent from the index costs ~1 and still scans the
			// (empty) posting list.
			name: "unknown_name_is_cheap",
			src:  `name(X, "nope"), kind(X, data)`,
			want: "plan (planned):\n" +
				"  1. scan X [name=nope] push[kind(X, \"data\")] (est 1)\n" +
				"  project X\n",
		},
		{
			// Empty constants never use the indexes: an absent key also
			// matches "" under map-lookup semantics, which only a scan
			// sees.
			name: "empty_value_stays_scan",
			src:  `attr(X, "owner", "")`,
			want: "plan (planned):\n" +
				"  1. scan X via attr(X, \"owner\", \"\") push[attr(X, \"owner\", \"\")] (est 1000)\n" +
				"  project X\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(q, indexedStats, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Explain(); got != tc.want {
				t.Errorf("plan for %q:\n%s\nwant:\n%s", tc.src, got, tc.want)
			}
		})
	}
}

// TestIndexNaiveParityRandomized is the end-to-end parity property: over
// a random mutation sequence (objects added and replaced, edges, the
// occasional protected node with a surrogate), every query in the panel
// must return byte-identical results with and without the secondary
// indexes, for Public and privileged viewers alike. The same engine is
// reused across rounds, so the view-advance (delta patch) path of the
// index maintenance is exercised, not just fresh builds. Runs under
// -race in CI.
func TestIndexNaiveParityRandomized(t *testing.T) {
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	e := NewEngine(b, privilege.TwoLevel())
	rng := rand.New(rand.NewSource(7))

	kinds := []plus.ObjectKind{plus.Data, plus.Invocation}
	names := []string{"alpha", "beta", "gamma", "delta", ""}
	owners := []string{"alice", "bob", "carol"}
	queries := []string{
		`name(X, "alpha")`,
		`attr(X, "owner", "alice")`,
		`kind(X, invocation), attr(X, "stage", "s1")`,
		`attr(X, "owner", "bob"), edge(X, Y)`,
		`name(X, "beta"), ancestor*(Y, X)`,
		`attr(X, "owner", "")`, // empty constant: both sides must scan
		`name(X, "gamma"), kind(X, data), attr(X, "owner", "carol")`,
	}
	viewers := []privilege.Predicate{privilege.Public, "Protected"}

	nextID := 0
	for round := 0; round < 12; round++ {
		// Mutate: a mix of fresh objects, replacements and edges.
		for w := 0; w < 15; w++ {
			switch {
			case nextID == 0 || rng.Intn(4) > 0: // new or replaced object
				id := nextID
				fresh := true
				if nextID > 0 && rng.Intn(3) == 0 {
					id, fresh = rng.Intn(nextID), false // replace an existing object
				} else {
					nextID++
				}
				// Protection is a function of the id so a replacement never
				// strands a surrogate on an unprotected original.
				protected := id%10 == 5
				o := plus.Object{
					ID:   fmt.Sprintf("o%03d", id),
					Kind: kinds[rng.Intn(len(kinds))],
					Name: names[rng.Intn(len(names))],
					Features: map[string]string{
						"owner": owners[rng.Intn(len(owners))],
						"stage": fmt.Sprintf("s%d", rng.Intn(3)),
					},
				}
				if protected {
					o.Lowest, o.Protect = "Protected", "surrogate"
				}
				if err := b.PutObject(o); err != nil {
					t.Fatal(err)
				}
				if protected && fresh {
					sp := plus.SurrogateSpec{
						ForID: o.ID, ID: o.ID + "~",
						Name:      "redacted",
						Features:  map[string]string{"kind": string(o.Kind)},
						InfoScore: 0.5,
					}
					if err := b.PutSurrogate(sp); err != nil {
						t.Fatal(err)
					}
				}
			default: // edge between existing objects (lower id -> higher id)
				if nextID < 2 {
					continue
				}
				i := rng.Intn(nextID - 1)
				j := i + 1 + rng.Intn(nextID-i-1)
				e := plus.Edge{
					From:  fmt.Sprintf("o%03d", i),
					To:    fmt.Sprintf("o%03d", j),
					Label: "input-to",
				}
				// Duplicate edges are expected over a random sequence.
				_ = b.PutEdge(e)
			}
		}
		// Verify: planned (index-backed) results must equal naive
		// scan-and-filter results exactly.
		for _, viewer := range viewers {
			for _, src := range queries {
				planned, err := e.Query(src, Options{Viewer: viewer})
				if err != nil {
					t.Fatalf("round %d viewer %s planned %q: %v", round, viewer, src, err)
				}
				naive, err := e.Query(src, Options{Viewer: viewer, Naive: true})
				if err != nil {
					t.Fatalf("round %d viewer %s naive %q: %v", round, viewer, src, err)
				}
				if !reflect.DeepEqual(planned.Vars, naive.Vars) {
					t.Fatalf("round %d viewer %s %q: vars %v vs %v", round, viewer, src, planned.Vars, naive.Vars)
				}
				if !reflect.DeepEqual(planned.Rows, naive.Rows) {
					t.Fatalf("round %d viewer %s %q:\nindexed: %+v\nnaive:   %+v",
						round, viewer, src, planned.Rows, naive.Rows)
				}
			}
		}
	}
	// The panel must actually have exercised the index path.
	st := e.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("view cache never hit: %+v", st)
	}
}

// TestNameFeatureOverridesRecordName pins which name a node goes by when
// a record's Name and a user feature called "name" disagree. The graph
// form writes the record's features over Name, so PLUSQL (index and naive
// path alike) and the lineage answer see the feature. The store's name
// postings key by the record's Name, so a name-seeded lineage resolves
// that one and not the feature.
func TestNameFeatureOverridesRecordName(t *testing.T) {
	b := plus.NewMemBackend(0)
	t.Cleanup(func() { b.Close() })
	if err := b.PutObject(plus.Object{ID: "n", Kind: plus.Data, Name: "A", Features: map[string]string{"name": "B"}}); err != nil {
		t.Fatal(err)
	}
	lat := privilege.TwoLevel()
	e := NewEngine(b, lat)
	for _, tc := range []struct {
		src  string
		want int
	}{{`name(X, "B")`, 1}, {`name(X, "A")`, 0}} {
		planned, err := e.Query(tc.src, Options{Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(planned.Plan, "[name=") {
			t.Errorf("%s is not served from the name postings:\n%s", tc.src, planned.Plan)
		}
		naive, err := e.Query(tc.src, Options{Naive: true})
		if err != nil {
			t.Fatal(err)
		}
		for path, rs := range map[string]*ResultSet{"index": planned, "naive": naive} {
			if len(rs.Rows) != tc.want || tc.want == 1 && rs.Rows[0][0].ID != "n" {
				t.Errorf("%s on the %s path: rows %+v, want %d naming n", tc.src, path, rs.Rows, tc.want)
			}
		}
	}

	ts := httptest.NewServer(plus.NewServer(plus.NewEngine(b, lat)))
	t.Cleanup(ts.Close)
	get := func(name string) (*http.Response, error) {
		return http.Get(ts.URL + "/v2/lineage?startName=" + name)
	}
	resp, err := get("A")
	if err != nil {
		t.Fatal(err)
	}
	var lr plus.LineageResponse
	err = json.NewDecoder(resp.Body).Decode(&lr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("startName=A: HTTP %d, %v", resp.StatusCode, err)
	}
	if len(lr.Nodes) != 1 || lr.Nodes[0].ID != "n" || lr.Nodes[0].Features["name"] != "B" {
		t.Errorf("startName=A answered %+v, want node n with name feature B", lr.Nodes)
	}
	resp, err = get("B")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("startName=B: HTTP %d, want 404", resp.StatusCode)
	}
}

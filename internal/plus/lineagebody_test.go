package plus

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// buildLineageResponse renders a protected lineage answer as its wire
// struct: the oracle appendLineageBody is held to, byte for byte, through
// encoding/json.
func buildLineageResponse(req Request, res *Result) LineageResponse {
	u := measure.Utilities(res.Spec, res.Account)
	resp := LineageResponse{
		Start:       req.Start,
		StartName:   req.StartName,
		Viewer:      string(req.Viewer),
		Mode:        string(req.Mode),
		PathUtility: u.Path,
		NodeUtility: u.Node,
		Timing: LineageTiming{
			DBAccessUS: res.Timing.DBAccess.Microseconds(),
			BuildUS:    res.Timing.Build.Microseconds(),
			ProtectUS:  res.Timing.Protect.Microseconds(),
			TotalUS:    res.Timing.Total.Microseconds(),
		},
	}
	for _, id := range res.Account.Graph.Nodes() {
		n, _ := res.Account.Graph.NodeByID(id)
		_, isSurr := res.Account.SurrogateNodes[id]
		resp.Nodes = append(resp.Nodes, LineageNode{ID: string(id), Features: n.Features, Surrogate: isSurr})
	}
	for _, e := range res.Account.Graph.Edges() {
		resp.Edges = append(resp.Edges, LineageEdge{
			From:      string(e.From),
			To:        string(e.To),
			Label:     e.Label,
			Surrogate: res.Account.SurrogateEdges[e.ID()],
		})
	}
	return resp
}

// oracleBody is the body encoding/json writes for the answer:
// json.NewEncoder(w).Encode(buildLineageResponse(req, res)).
func oracleBody(t testing.TB, req Request, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(buildLineageResponse(req, res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBody fails unless appendLineageBody writes exactly the oracle's
// bytes, appended after whatever dst already held.
func checkBody(t testing.TB, req Request, res *Result) {
	t.Helper()
	want := oracleBody(t, req, res)
	got, err := appendLineageBody([]byte("prefix"), req, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("body differs from encoding/json:\n got %q\nwant %q", got, want)
	}
}

// TestLineageBodyMatchesEncodingJSON renders served answers — both
// viewers, both modes, every direction, id- and name-seeded — and holds
// each body to the oracle.
func TestLineageBodyMatchesEncodingJSON(t *testing.T) {
	en := lineageFixture(t)
	for _, viewer := range []privilege.Predicate{privilege.Public, "Protected"} {
		for _, mode := range []Mode{ModeSurrogate, ModeHide} {
			for _, dir := range []graph.Direction{graph.Backward, graph.Forward, graph.Undirected} {
				for _, req := range []Request{
					{Start: "report", Direction: dir, Viewer: viewer, Mode: mode},
					{Start: "proc", Direction: dir, Viewer: viewer, Mode: mode},
					{StartName: "derived table", Direction: dir, Viewer: viewer, Mode: mode},
				} {
					res, err := en.Lineage(req)
					if err != nil {
						t.Fatal(err)
					}
					checkBody(t, req, res)
				}
			}
		}
	}
}

// TestAppendJSONFloat holds the float form to encoding/json's on both
// sides of its exponent cut-offs.
func TestAppendJSONFloat(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, 2.0 / 3, 1e-6, 9.99e-7, 1e-7, 1.5e-300,
		1e20, 1e21, 123456789.125, -0.25, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestLineageBodyRefusesNonFiniteUtility: encoding/json cannot encode NaN,
// and neither may the body invent a form for it.
func TestLineageBodyRefusesNonFiniteUtility(t *testing.T) {
	res := fuzzResult([]string{"x"}, nil, "", 0)
	res.Account.InfoScore["x"] = math.NaN()
	if _, err := appendLineageBody(nil, Request{Start: "x"}, res); !errors.Is(err, errNoJSONForm) {
		t.Fatalf("NaN node utility: err %v, want errNoJSONForm", err)
	}
}

// fuzzResult assembles a lineage answer straight from strings: nodes ids
// (duplicates collapse) carrying feats on every other node, a chain of
// edges labelled label, and flags choosing which nodes and edges are
// surrogates and the timing figures.
func fuzzResult(ids []string, feats graph.Features, label string, flags uint8) *Result {
	g := graph.New()
	a := &account.Account{
		Graph:          g,
		ToOriginal:     map[graph.NodeID]graph.NodeID{},
		FromOriginal:   map[graph.NodeID]graph.NodeID{},
		InfoScore:      map[graph.NodeID]float64{},
		SurrogateNodes: map[graph.NodeID]surrogate.Surrogate{},
		SurrogateEdges: map[graph.EdgeID]bool{},
	}
	var prev graph.NodeID
	for i, s := range ids {
		id := graph.NodeID(s)
		if g.HasNode(id) {
			continue
		}
		var f graph.Features
		if i%2 == 0 {
			f = feats
		}
		g.AddNode(graph.Node{ID: id, Features: f})
		a.ToOriginal[id], a.FromOriginal[id] = id, id
		a.InfoScore[id] = float64(i+1) / float64(len(ids)+1)
		if flags&(1<<i) != 0 {
			a.SurrogateNodes[id] = surrogate.Surrogate{ID: id}
		}
		if i > 0 && g.AddEdge(graph.Edge{From: prev, To: id, Label: label}) == nil && flags&(8<<i) != 0 {
			a.SurrogateEdges[graph.EdgeID{From: prev, To: id}] = true
		}
		prev = id
	}
	return &Result{
		Spec:    &account.Spec{Graph: g.Clone()},
		Account: a,
		Timing: Timing{
			DBAccess: time.Duration(flags) * time.Microsecond,
			Build:    time.Duration(flags) * time.Millisecond,
			Total:    time.Duration(flags) * time.Second,
		},
	}
}

// FuzzLineageBody holds appendLineageBody to the encoding/json oracle on
// arbitrary strings in every position a string reaches the body: request
// echo, node ids, feature keys and values, edge labels. The committed
// seeds cover HTML-sensitive bytes, quotes, control bytes, invalid UTF-8,
// U+2028/U+2029, an empty closure and startName present and absent.
func FuzzLineageBody(f *testing.F) {
	f.Add("report", "", "a", "b", "c", "name", "x", "input-to", uint8(0))
	f.Add("", "", "", "", "", "", "", "", uint8(0))
	f.Add("<s>&", "na\"me", "a\x00\x1f", "b\u2028", "c\u2029", "k\\", "\xff\xfe", "l\t\n\r\b\f", uint8(0xff))
	f.Fuzz(func(t *testing.T, start, startName, id1, id2, id3, key, value, label string, flags uint8) {
		ids := []string{id1, id2, id3}[:flags%4]
		req := Request{Start: start, StartName: startName, Viewer: privilege.Predicate(key), Mode: Mode(value)}
		checkBody(t, req, fuzzResult(ids, graph.Features{key: value, value: label}, label, flags))
	})
}

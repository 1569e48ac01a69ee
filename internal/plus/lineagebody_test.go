package plus

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// reflectLineage is LineageResponse without its methods: encoding/json
// encodes and decodes it by reflection, the oracle appendLineageBody and
// UnmarshalJSON are held to.
type reflectLineage LineageResponse

// buildLineageResponse renders a protected lineage answer as its wire
// struct: the oracle appendLineageBody is held to, byte for byte, through
// encoding/json.
func buildLineageResponse(req Request, res *Result) reflectLineage {
	u := measure.Utilities(res.Spec, res.Account)
	resp := reflectLineage{
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
// bytes, appended after whatever dst already held, and UnmarshalJSON
// decodes them as the oracle does.
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
	checkDecode(t, want)
}

// checkDecode fails unless UnmarshalJSON accepts data exactly when
// json.Unmarshal into a reflectLineage does and, when both accept it,
// decodes the same value, nil and empty slices and maps told apart; and
// the same again when each decodes data a second time over its first
// answer.
func checkDecode(t testing.TB, data []byte) {
	t.Helper()
	var got LineageResponse
	var want reflectLineage
	for pass := 1; pass <= 2; pass++ {
		errGot, errWant := got.UnmarshalJSON(data), json.Unmarshal(data, &want)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("pass %d over %q: UnmarshalJSON err %v, encoding/json err %v", pass, data, errGot, errWant)
		}
		if errGot != nil {
			return
		}
		if !reflect.DeepEqual(reflectLineage(got), want) {
			t.Fatalf("pass %d over %q: decoded\n%#v\nwant\n%#v", pass, data, got, want)
		}
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
	for _, seed := range lineageBodySeeds {
		f.Add(seed.start, seed.startName, seed.id1, seed.id2, seed.id3, seed.key, seed.value, seed.label, seed.flags)
	}
	f.Fuzz(func(t *testing.T, start, startName, id1, id2, id3, key, value, label string, flags uint8) {
		req, res := lineageBodySeed{start, startName, id1, id2, id3, key, value, label, flags}.answer()
		checkBody(t, req, res)
	})
}

// lineageBodySeed is one input of FuzzLineageBody.
type lineageBodySeed struct {
	start, startName, id1, id2, id3, key, value, label string
	flags                                              uint8
}

// lineageBodySeeds are FuzzLineageBody's seeds in code.
var lineageBodySeeds = []lineageBodySeed{
	{"report", "", "a", "b", "c", "name", "x", "input-to", 0},
	{"", "", "", "", "", "", "", "", 0},
	{"<s>&", "na\"me", "a\x00\x1f", "b\u2028", "c\u2029", "k\\", "\xff\xfe", "l\t\n\r\b\f", 0xff},
}

// answer is the request and lineage answer FuzzLineageBody encodes for
// the seed.
func (s lineageBodySeed) answer() (Request, *Result) {
	ids := []string{s.id1, s.id2, s.id3}[:s.flags%4]
	req := Request{Start: s.start, StartName: s.startName, Viewer: privilege.Predicate(s.key), Mode: Mode(s.value)}
	return req, fuzzResult(ids, graph.Features{s.key: s.value, s.value: s.label}, s.label, s.flags)
}

// lineageBodyCorpus returns the body of every answer in FuzzLineageBody's
// corpus: its seeds in code and its committed seed files.
func lineageBodyCorpus(t testing.TB) [][]byte {
	t.Helper()
	seeds := append([]lineageBodySeed(nil), lineageBodySeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzLineageBody", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzLineageBody's seed files: %v, err %v", files, err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 10 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a FuzzLineageBody seed file", file)
		}
		var args [9]string
		for i, line := range lines[1:] {
			typ := "string("
			if i == len(args)-1 {
				typ = "byte("
			}
			lit, ok := strings.CutPrefix(line, typ)
			if args[i], err = strconv.Unquote(strings.TrimSuffix(lit, ")")); !ok || err != nil {
				t.Fatalf("%s: line %q is not a FuzzLineageBody argument", file, line)
			}
		}
		flags, size := utf8.DecodeRuneInString(args[8])
		if size != len(args[8]) || flags > 0xff {
			t.Fatalf("%s: flags %q are not a byte", file, args[8])
		}
		seeds = append(seeds, lineageBodySeed{args[0], args[1], args[2], args[3], args[4], args[5], args[6], args[7], uint8(flags)})
	}
	bodies := make([][]byte, len(seeds))
	for i, seed := range seeds {
		req, res := seed.answer()
		if bodies[i], err = appendLineageBody(nil, req, res); err != nil {
			t.Fatal(err)
		}
	}
	return bodies
}

// FuzzLineageDecode holds UnmarshalJSON to encoding/json on any input:
// it must accept exactly what json.Unmarshal into a reflectLineage
// accepts and decode the same value (checkDecode). The seeds are every
// body of FuzzLineageBody's corpus, and the committed ones cover
// surrogate pairs and lone surrogates, invalid UTF-8 and U+2028, null
// and empty nodes and features, a case-folded key, a repeated key, an
// unknown field, a float timing and trailing data.
func FuzzLineageDecode(f *testing.F) {
	for _, body := range lineageBodyCorpus(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// TestLineageDecodeDepthLimit: encoding/json refuses a document nested
// deeper than 10 000 arrays and objects, the answer's own object
// included, and so must UnmarshalJSON, in an unknown field as anywhere.
func TestLineageDecodeDepthLimit(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		doc := `{"unknown":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		var resp LineageResponse
		if err := resp.UnmarshalJSON([]byte(doc)); (err == nil) != (depth < 10000) {
			t.Errorf("an answer holding %d nested arrays: err %v", depth, err)
		}
		checkDecode(t, []byte(doc))
	}
}

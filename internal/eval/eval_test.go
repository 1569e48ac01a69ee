package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/account"
	"repro/internal/measure"
	"repro/internal/workload"
)

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v ± %v", name, got, want, tol)
	}
}

func TestRunningExampleStructure(t *testing.T) {
	r := NewRunning()
	if r.Graph.NumNodes() != 11 {
		t.Fatalf("|N| = %d, want 11 (Figure 1a)", r.Graph.NumNodes())
	}
	for _, e := range r.Graph.Edges() {
		if r.Graph.HasPath(e.To, e.From) {
			t.Errorf("Figure 1a should be a DAG; %s closes a cycle", e.ID())
		}
	}
	// Every node of G is connected (to or from) to all 10 others.
	for id, got := range r.Graph.ConnectedPairsAll() {
		if got != 10 {
			t.Errorf("ConnectedPairs(%s) = %d, want 10", id, got)
		}
	}
}

func TestNaiveAccountMatchesFigure1c(t *testing.T) {
	r := NewRunning()
	spec, a, err := r.NaiveAccount()
	if err != nil {
		t.Fatal(err)
	}
	if err := account.VerifySound(spec, a); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"b": true, "c": true, "g": true, "h": true, "i": true, "j": true}
	if a.Graph.NumNodes() != len(want) {
		t.Fatalf("naive nodes = %v", a.Graph.Nodes())
	}
	for _, id := range a.Graph.Nodes() {
		if !want[string(id)] {
			t.Errorf("unexpected node %s in G'_N", id)
		}
	}
	// Exactly the Figure 1c edges: b->c and the g/h/i/j chain.
	if a.Graph.NumEdges() != 4 {
		t.Errorf("naive edges = %v", a.Graph.Edges())
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		within(t, "PathUtility("+r.Scenario.String()+")", r.PathUtility, r.PaperPathUtility, 0.005)
		within(t, "Opacity("+r.Scenario.String()+")", r.OpacityFG, r.PaperOpacityFG, 0.01)
	}
	// The paper's ordering across scenarios.
	if !(rows[0].PathUtility > rows[1].PathUtility && rows[1].PathUtility > rows[2].PathUtility) {
		t.Error("path utility ordering 2a > 2b > 2c violated")
	}
	if rows[3].OpacityFG <= rows[2].OpacityFG {
		t.Error("2d should be more opaque than 2c (surrogate edge raises opacity)")
	}
}

func TestFigure3MatchesPaper(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	within(t, "PathUtility", res.PathUtility, 0.13, 0.005)
	within(t, "NodeUtility", res.NodeUtility, 6.0/11.0, 1e-9)
	within(t, "%P(b')", res.PathPercentB, 0.1, 1e-9)
	within(t, "%P(h')", res.PathPercentH, 0.3, 1e-9)
}

func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DeltaOpacity < -1e-9 || r.DeltaUtility < -1e-9 {
			t.Errorf("%s: negative difference (dOp=%v dU=%v)", r.Motif, r.DeltaOpacity, r.DeltaUtility)
		}
		switch r.Motif {
		case "Bipartite", "Lattice":
			if r.DeltaOpacity > 1e-9 || r.DeltaUtility > 1e-9 {
				t.Errorf("%s: expected zero differences, got dOp=%v dU=%v", r.Motif, r.DeltaOpacity, r.DeltaUtility)
			}
		default:
			if r.DeltaOpacity < 1e-9 && r.DeltaUtility < 1e-9 {
				t.Errorf("%s: expected a positive difference", r.Motif)
			}
		}
	}
}

// smallGrid keeps the sweep test fast: 3 protection levels x 2 densities
// at 80 nodes.
func smallGrid() []workload.SyntheticConfig {
	var cfgs []workload.SyntheticConfig
	for fi, f := range []float64{0.10, 0.50, 0.90} {
		for ci, target := range []float64{15, 35} {
			cfgs = append(cfgs, workload.SyntheticConfig{
				Nodes:           80,
				TargetConnected: target,
				ProtectFraction: f,
				Seed:            int64(500 + fi*10 + ci),
			})
		}
	}
	return cfgs
}

func TestSyntheticSweepShape(t *testing.T) {
	rows, err := SyntheticSweep(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byFraction := map[float64][]SyntheticRow{}
	for _, r := range rows {
		// §6.3 headline: all differences are positive — surrogating always
		// beats hiding.
		if r.DeltaOpacity() < -1e-9 {
			t.Errorf("prot=%v conn=%v: negative opacity difference %v", r.ProtectFraction, r.MeanConnected, r.DeltaOpacity())
		}
		if r.DeltaUtility() <= 0 {
			t.Errorf("prot=%v conn=%v: non-positive utility difference %v", r.ProtectFraction, r.MeanConnected, r.DeltaUtility())
		}
		if r.UtilityHide < 0 || r.UtilityHide > 1 || r.UtilitySurrogate < 0 || r.UtilitySurrogate > 1 {
			t.Errorf("utilities out of range: %+v", r)
		}
		byFraction[r.ProtectFraction] = append(byFraction[r.ProtectFraction], r)
	}
	// Utility decreases as protection grows (Figure 9b narrative), for
	// both strategies, comparing same-density rows.
	for ci := 0; ci < 2; ci++ {
		u10 := byFraction[0.10][ci].UtilityHide
		u90 := byFraction[0.90][ci].UtilityHide
		if u90 >= u10 {
			t.Errorf("hide utility should fall with protection: 10%%=%v 90%%=%v", u10, u90)
		}
	}
	// Opacity difference grows with the amount protected (Figure 9a).
	var mean10, mean90 float64
	for ci := 0; ci < 2; ci++ {
		mean10 += byFraction[0.10][ci].DeltaOpacity() / 2
		mean90 += byFraction[0.90][ci].DeltaOpacity() / 2
	}
	if mean90 <= mean10 {
		t.Errorf("opacity difference should grow with protection: 10%%=%v 90%%=%v", mean10, mean90)
	}
}

func TestFigure8Dominance(t *testing.T) {
	rows, err := SyntheticSweep(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	pts := Figure8(rows)
	if len(pts) == 0 {
		t.Fatal("no frontier points")
	}
	best := map[string]float64{}
	for _, p := range pts {
		if p.MaxUtility < 0 || p.MaxUtility > 1 || p.OpacityBin < 0 || p.OpacityBin > 1 {
			t.Errorf("point out of range: %+v", p)
		}
		if p.MaxUtility > best[p.Strategy] {
			best[p.Strategy] = p.MaxUtility
		}
	}
	// Surrogate's achievable utility dominates hide's overall.
	if best["Surrogate"] < best["Hide"] {
		t.Errorf("surrogate frontier %v below hide frontier %v", best["Surrogate"], best["Hide"])
	}
}

func TestFigure10Decomposition(t *testing.T) {
	res, err := Figure10(t.TempDir(), 120)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 120 || res.Edges == 0 {
		t.Errorf("result = %+v", res)
	}
	for name, d := range map[string]int64{
		"StoreWrite":       int64(res.StoreWrite),
		"DBAccess":         int64(res.DBAccess),
		"ProtectHide":      int64(res.ProtectHide),
		"ProtectSurrogate": int64(res.ProtectSurrogate),
		"Total":            int64(res.Total),
	} {
		if d <= 0 {
			t.Errorf("%s = %d, want > 0", name, d)
		}
	}
	// The paper's structural claim: protection is subsumed by the cost of
	// creating the graph.
	if res.ProtectSurrogate > res.Total {
		t.Error("protection cost exceeds total")
	}
	if res.StoreWrite+res.DBAccess <= res.ProtectHide {
		t.Errorf("graph creation (%v+%v) should dwarf protection (%v)", res.StoreWrite, res.DBAccess, res.ProtectHide)
	}
	tbl := Fig10Table(res)
	if !strings.Contains(tbl.String(), "protect via surrogate") {
		t.Error("table missing rows")
	}
}

// TestPaperGridSweep validates the §6.3 invariants over the full 50-graph
// paper grid; skipped under -short because it takes a few seconds.
func TestPaperGridSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper grid skipped in -short mode")
	}
	rows, err := SyntheticSweep(workload.PaperGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("rows = %d, want 50", len(rows))
	}
	for _, r := range rows {
		if r.DeltaOpacity() < -1e-9 || r.DeltaUtility() < -1e-9 {
			t.Errorf("prot=%v conn=%.0f: negative difference (dOp=%v dU=%v)",
				r.ProtectFraction, r.MeanConnected, r.DeltaOpacity(), r.DeltaUtility())
		}
		if r.MeanConnected < 30 {
			t.Errorf("connectedness %v below the paper's 30 floor", r.MeanConnected)
		}
	}
}

func TestFig9AndFig8Tables(t *testing.T) {
	rows, err := SyntheticSweep(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	opa, util := Fig9Tables(rows)
	if len(opa.Rows) != len(rows) || len(util.Rows) != len(rows) {
		t.Errorf("table rows = %d/%d, want %d", len(opa.Rows), len(util.Rows), len(rows))
	}
	// Rows are sorted by protection fraction then connectedness.
	prev := ""
	for _, r := range opa.Rows {
		if r[0] < prev {
			t.Errorf("fig9a rows unsorted: %s after %s", r[0], prev)
		}
		prev = r[0]
	}
	if !strings.Contains(opa.Header[3], "scale-free") {
		t.Error("fig9a missing the scale-free column")
	}
	f8 := Fig8Table(rows)
	if len(f8.Rows) == 0 {
		t.Error("fig8 table empty")
	}
	if csv := f8.CSV(); !strings.Contains(csv, "strategy,opacityBin,maxUtility") {
		t.Errorf("fig8 csv header wrong: %s", csv)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.Add("x", 1.23456)
	tbl.Add("with,comma", "quo\"te")
	s := tbl.String()
	if !strings.Contains(s, "1.235") || !strings.Contains(s, "T") {
		t.Errorf("render: %s", s)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"with,comma"`) || !strings.Contains(csv, `"quo""te"`) {
		t.Errorf("csv escaping: %s", csv)
	}
}

func TestScenarioString(t *testing.T) {
	if Fig2a.String() != "2a" || Fig2d.String() != "2d" {
		t.Error("scenario strings wrong")
	}
	if Scenario(99).String() == "" {
		t.Error("unknown scenario should render")
	}
}

func TestAllAccountsVerify(t *testing.T) {
	r := NewRunning()
	for _, s := range []Scenario{Fig2a, Fig2b, Fig2c, Fig2d} {
		spec, a, err := r.Account(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := account.VerifySound(spec, a); err != nil {
			t.Errorf("%v unsound: %v", s, err)
		}
		if err := account.VerifyMaximal(spec, a); err != nil {
			t.Errorf("%v not maximal: %v", s, err)
		}
		// Nothing in the account requires more privilege than the viewer
		// has.
		u := measure.Utilities(spec, a)
		if u.Path < 0 || u.Path > 1 || u.Node < 0 || u.Node > 1 {
			t.Errorf("%v utilities out of range: %+v", s, u)
		}
	}
}

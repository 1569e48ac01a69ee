package eval

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/privilege"
	"repro/internal/workload"
)

// Table1Row is one column of the paper's Table 1: path utility of a Figure
// 2 account and the opacity of the sensitive edge f->g, next to the values
// the paper reports.
type Table1Row struct {
	Scenario         Scenario
	PathUtility      float64
	OpacityFG        float64
	PaperPathUtility float64
	PaperOpacityFG   float64
}

// Table1 regenerates Table 1 over the running example.
func Table1() ([]Table1Row, error) {
	r := NewRunning()
	adv := measure.Figure5()
	paperPU := map[Scenario]float64{Fig2a: 0.38, Fig2b: 0.27, Fig2c: 0.13, Fig2d: 0.27}
	paperOp := map[Scenario]float64{Fig2a: 0, Fig2b: 1, Fig2c: 0.882, Fig2d: 0.948}
	var rows []Table1Row
	for _, s := range []Scenario{Fig2a, Fig2b, Fig2c, Fig2d} {
		spec, a, err := r.Account(s)
		if err != nil {
			return nil, err
		}
		if err := account.VerifySound(spec, a); err != nil {
			return nil, fmt.Errorf("eval: scenario %v: %w", s, err)
		}
		rows = append(rows, Table1Row{
			Scenario:         s,
			PathUtility:      measure.PathUtility(spec, a),
			OpacityFG:        measure.EdgeOpacity(spec, a, r.FG, adv),
			PaperPathUtility: paperPU[s],
			PaperOpacityFG:   paperOp[s],
		})
	}
	return rows, nil
}

// Table1Table renders Table 1.
func Table1Table() (*Table, error) {
	rows, err := Table1()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 1: Path Utility and Opacity for the Figure 2 accounts",
		Header: []string{"graph", "PathUtility", "paper", "Opacity(f->g)", "paper"},
	}
	for _, r := range rows {
		t.Add(r.Scenario, r.PathUtility, r.PaperPathUtility, r.OpacityFG, r.PaperOpacityFG)
	}
	return t, nil
}

// Fig3Result is the Figure 3b walkthrough: the utilities of the naive
// account G'_N, with the per-node path percentages the prose quotes.
type Fig3Result struct {
	PathUtility      float64 // paper: .13
	NodeUtility      float64 // paper: 6/11
	PathPercentB     float64 // paper: 1/10
	PathPercentH     float64 // paper: 3/10
	PaperPathUtility float64
	PaperNodeUtility float64
}

// Figure3 regenerates the §4.1 worked example.
func Figure3() (*Fig3Result, error) {
	r := NewRunning()
	spec, a, err := r.NaiveAccount()
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		PathUtility:      measure.PathUtility(spec, a),
		NodeUtility:      measure.NodeUtility(spec, a),
		PathPercentB:     measure.PathPercentage(spec, a, "b"),
		PathPercentH:     measure.PathPercentage(spec, a, "h"),
		PaperPathUtility: 0.13,
		PaperNodeUtility: 6.0 / 11.0,
	}, nil
}

// Fig3Table renders the Figure 3 walkthrough.
func Fig3Table() (*Table, error) {
	res, err := Figure3()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 3: utility measures of the naive account G'_N",
		Header: []string{"measure", "measured", "paper"},
	}
	t.Add("PathUtility", res.PathUtility, res.PaperPathUtility)
	t.Add("NodeUtility", res.NodeUtility, res.PaperNodeUtility)
	t.Add("%P(b')", res.PathPercentB, 0.1)
	t.Add("%P(h')", res.PathPercentH, 0.3)
	return t, nil
}

// Fig7Row is one motif's bar pair in Figure 7: the differences
// (surrogate − hide) in opacity of the protected edge and in path utility.
type Fig7Row struct {
	Motif            string
	OpacityHide      float64
	OpacitySurrogate float64
	UtilityHide      float64
	UtilitySurrogate float64
	DeltaOpacity     float64
	DeltaUtility     float64
}

// Figure7 regenerates the motif analysis of §6.2.
func Figure7() ([]Fig7Row, error) {
	adv := measure.Figure5()
	var rows []Fig7Row
	for _, m := range workload.Motifs() {
		row := Fig7Row{Motif: m.Name}
		for _, asSurrogate := range []bool{false, true} {
			spec, err := workload.ProtectSpec(m.Graph, []graph.EdgeID{m.Protected}, asSurrogate)
			if err != nil {
				return nil, err
			}
			a, err := account.Generate(spec, privilege.Public)
			if err != nil {
				return nil, err
			}
			op := measure.EdgeOpacity(spec, a, m.Protected, adv)
			pu := measure.PathUtility(spec, a)
			if asSurrogate {
				row.OpacitySurrogate, row.UtilitySurrogate = op, pu
			} else {
				row.OpacityHide, row.UtilityHide = op, pu
			}
		}
		row.DeltaOpacity = row.OpacitySurrogate - row.OpacityHide
		row.DeltaUtility = row.UtilitySurrogate - row.UtilityHide
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7Table renders Figure 7.
func Fig7Table() (*Table, error) {
	rows, err := Figure7()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 7: surrogating vs hiding per motif (differences, surrogate - hide)",
		Header: []string{"motif", "dOpacity", "dUtility", "opacity(hide)", "opacity(surr)", "utility(hide)", "utility(surr)"},
	}
	for _, r := range rows {
		t.Add(r.Motif, r.DeltaOpacity, r.DeltaUtility, r.OpacityHide, r.OpacitySurrogate, r.UtilityHide, r.UtilitySurrogate)
	}
	return t, nil
}

// SyntheticRow holds both strategies' measurements for one synthetic
// graph; Figures 8 and 9 are different projections of these rows.
type SyntheticRow struct {
	ProtectFraction float64
	TargetConnected float64
	MeanConnected   float64
	Edges           int
	ProtectedEdges  int
	// OpacityHide/OpacitySurrogate average opacity over the protected
	// edges (Figure 9a's quantity), under the normalised Figure 4 reading.
	OpacityHide      float64
	OpacitySurrogate float64
	// OpacityRawHide/OpacityRawSurrogate are the same averages under the
	// scale-free reading (measure.AverageOpacityScaleFree), which keeps the
	// dynamic range visible at 200 nodes.
	OpacityRawHide      float64
	OpacityRawSurrogate float64
	// GraphOpacityHide/GraphOpacitySurrogate average opacity over every
	// edge of G — §4.2's whole-graph tradeoff number and Figure 8's
	// opacity axis.
	GraphOpacityHide      float64
	GraphOpacitySurrogate float64
	UtilityHide           float64
	UtilitySurrogate      float64
}

// DeltaOpacity is OpacitySurrogate - OpacityHide (Figure 9a's z-axis).
func (r SyntheticRow) DeltaOpacity() float64 { return r.OpacitySurrogate - r.OpacityHide }

// DeltaOpacityRaw is the same difference under the scale-free reading.
func (r SyntheticRow) DeltaOpacityRaw() float64 { return r.OpacityRawSurrogate - r.OpacityRawHide }

// DeltaUtility is UtilitySurrogate - UtilityHide (Figure 9b's z-axis).
func (r SyntheticRow) DeltaUtility() float64 { return r.UtilitySurrogate - r.UtilityHide }

// SyntheticSweep measures hide and surrogate protection over the given
// configurations (the paper grid by default). Opacity is averaged over the
// protected edges; utility is the Path Utility Measure.
func SyntheticSweep(cfgs []workload.SyntheticConfig) ([]SyntheticRow, error) {
	adv := measure.Figure5()
	var rows []SyntheticRow
	for _, cfg := range cfgs {
		syn, err := workload.GenerateSynthetic(cfg)
		if err != nil {
			return nil, err
		}
		row := SyntheticRow{
			ProtectFraction: cfg.ProtectFraction,
			TargetConnected: cfg.TargetConnected,
			MeanConnected:   syn.MeanConnected,
			Edges:           syn.Graph.NumEdges(),
			ProtectedEdges:  len(syn.Protected),
		}
		for _, asSurrogate := range []bool{false, true} {
			spec, err := workload.ProtectSpec(syn.Graph, syn.Protected, asSurrogate)
			if err != nil {
				return nil, err
			}
			a, err := account.Generate(spec, privilege.Public)
			if err != nil {
				return nil, err
			}
			op := measure.AverageOpacity(spec, a, syn.Protected, adv)
			raw := measure.AverageOpacityScaleFree(spec, a, syn.Protected, adv)
			gop := measure.GraphOpacity(spec, a, adv)
			pu := measure.PathUtility(spec, a)
			if asSurrogate {
				row.OpacitySurrogate, row.OpacityRawSurrogate = op, raw
				row.GraphOpacitySurrogate, row.UtilitySurrogate = gop, pu
			} else {
				row.OpacityHide, row.OpacityRawHide = op, raw
				row.GraphOpacityHide, row.UtilityHide = gop, pu
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9Tables renders Figure 9a (opacity difference) and 9b (utility
// difference) grouped by protection fraction.
func Fig9Tables(rows []SyntheticRow) (*Table, *Table) {
	opa := &Table{
		Title:  "Figure 9a: OpacitySurrogate - OpacityHide by connectedness and protection",
		Header: []string{"protected%", "connectedPairs", "dOpacity", "dOpacity(scale-free)"},
	}
	util := &Table{
		Title:  "Figure 9b: UtilitySurrogate - UtilityHide by connectedness and protection",
		Header: []string{"protected%", "connectedPairs", "dUtility"},
	}
	sorted := append([]SyntheticRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].ProtectFraction != sorted[j].ProtectFraction {
			return sorted[i].ProtectFraction < sorted[j].ProtectFraction
		}
		return sorted[i].TargetConnected < sorted[j].TargetConnected
	})
	for _, r := range sorted {
		pct := fmt.Sprintf("%.0f%%", r.ProtectFraction*100)
		opa.Add(pct, r.MeanConnected, fmt.Sprintf("%.5f", r.DeltaOpacity()), r.DeltaOpacityRaw())
		util.Add(pct, r.MeanConnected, r.DeltaUtility())
	}
	return opa, util
}

// Fig8Point is one point of the Figure 8 frontier: the maximum utility
// observed at a given opacity bucket for one strategy.
type Fig8Point struct {
	Strategy   string // "Hide" or "Surrogate"
	OpacityBin float64
	MaxUtility float64
}

// Figure8 buckets the sweep into opacity bins of width 0.1 and reports the
// maximum utility per bin per strategy — "Maximum Utility given an Opacity
// rating".
func Figure8(rows []SyntheticRow) []Fig8Point {
	type key struct {
		strategy string
		bin      int
	}
	best := map[key]float64{}
	record := func(strategy string, op, util float64) {
		bin := int(math.Floor(op*10 + 1e-9))
		if bin > 10 {
			bin = 10
		}
		k := key{strategy, bin}
		if util > best[k] {
			best[k] = util
		}
	}
	for _, r := range rows {
		record("Hide", r.GraphOpacityHide, r.UtilityHide)
		record("Surrogate", r.GraphOpacitySurrogate, r.UtilitySurrogate)
	}
	var pts []Fig8Point
	for k, u := range best {
		pts = append(pts, Fig8Point{Strategy: k.strategy, OpacityBin: float64(k.bin) / 10, MaxUtility: u})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Strategy != pts[j].Strategy {
			return pts[i].Strategy < pts[j].Strategy
		}
		return pts[i].OpacityBin < pts[j].OpacityBin
	})
	return pts
}

// Fig8Table renders Figure 8.
func Fig8Table(rows []SyntheticRow) *Table {
	t := &Table{
		Title:  "Figure 8: maximum utility at a given opacity (hide vs surrogate)",
		Header: []string{"strategy", "opacityBin", "maxUtility"},
	}
	for _, p := range Figure8(rows) {
		t.Add(p.Strategy, p.OpacityBin, p.MaxUtility)
	}
	return t
}

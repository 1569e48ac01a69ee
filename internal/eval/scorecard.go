package eval

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/workload"
)

// Claim is one machine-checked reproduction claim: a statement the paper
// makes that this repository verifies programmatically.
type Claim struct {
	ID     string
	Text   string
	Pass   bool
	Detail string
}

// Scorecard evaluates every reproduction claim and returns the verdicts.
// It is the one-shot answer to "did the reproduction work?": each row is
// backed by the same code paths the individual experiments use.
func Scorecard() ([]Claim, error) {
	claims, err := clockFreeClaims()
	if err != nil {
		return nil, err
	}
	f10, err := figure10Claim()
	if err != nil {
		return nil, err
	}
	return append(claims, f10), nil
}

// clockFreeClaims evaluates every claim but F10, which reads a clock.
func clockFreeClaims() ([]Claim, error) {
	var claims []Claim
	add := func(id, text string, pass bool, detail string, args ...interface{}) {
		claims = append(claims, Claim{ID: id, Text: text, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}

	// Table 1 / Figure 3: the worked numbers.
	t1, err := Table1()
	if err != nil {
		return nil, err
	}
	puOK, opOK := true, true
	var worstPU, worstOp float64
	for _, r := range t1 {
		if d := math.Abs(r.PathUtility - r.PaperPathUtility); d > 0.005 {
			puOK = false
		} else if d > worstPU {
			worstPU = d
		}
		if d := math.Abs(r.OpacityFG - r.PaperOpacityFG); d > 0.01 {
			opOK = false
		} else if d > worstOp {
			worstOp = d
		}
	}
	add("T1-utility", "Table 1 path utilities match the paper", puOK, "max |Δ| = %.4f (tol .005)", worstPU)
	add("T1-opacity", "Table 1 opacities match within .01", opOK, "max |Δ| = %.4f (tol .01)", worstOp)

	f3, err := Figure3()
	if err != nil {
		return nil, err
	}
	add("F3", "Figure 3 worked example (%P(b')=1/10, %P(h')=3/10, NU=6/11)",
		math.Abs(f3.PathUtility-0.13) <= 0.005 &&
			f3.PathPercentB == 0.1 && f3.PathPercentH == 0.3 &&
			math.Abs(f3.NodeUtility-6.0/11.0) < 1e-9,
		"PU=%.3f NU=%.3f", f3.PathUtility, f3.NodeUtility)

	// Figure 7: signs and the two stated zeros.
	f7, err := Figure7()
	if err != nil {
		return nil, err
	}
	f7OK := true
	for _, r := range f7 {
		zero := r.Motif == "Bipartite" || r.Motif == "Lattice"
		switch {
		case r.DeltaOpacity < -1e-9 || r.DeltaUtility < -1e-9:
			f7OK = false
		case zero && (r.DeltaOpacity > 1e-9 || r.DeltaUtility > 1e-9):
			f7OK = false
		case !zero && r.DeltaOpacity <= 1e-9 && r.DeltaUtility <= 1e-9:
			f7OK = false
		}
	}
	add("F7", "Figure 7 motif differences: non-negative, zero exactly for Bipartite and Lattice", f7OK, "%d motifs checked", len(f7))

	// Figures 8/9 on a reduced grid (the full grid runs in the eval tests
	// and cmd/experiments).
	grid := []workload.SyntheticConfig{
		{Nodes: 100, TargetConnected: 25, ProtectFraction: 0.1, Seed: 8101},
		{Nodes: 100, TargetConnected: 25, ProtectFraction: 0.5, Seed: 8102},
		{Nodes: 100, TargetConnected: 25, ProtectFraction: 0.9, Seed: 8103},
	}
	rows, err := SyntheticSweep(grid)
	if err != nil {
		return nil, err
	}
	allPositive := true
	for _, r := range rows {
		if r.DeltaUtility() <= 0 || r.DeltaOpacity() < -1e-9 {
			allPositive = false
		}
	}
	add("F9-positive", "Figure 9: surrogating is always at least as good as hiding", allPositive,
		"dU: %.3f / %.3f / %.3f", rows[0].DeltaUtility(), rows[1].DeltaUtility(), rows[2].DeltaUtility())
	add("F9-monotone", "Figure 9a: opacity difference grows with fraction protected",
		rows[2].DeltaOpacity() > rows[0].DeltaOpacity(),
		"dOp 10%%=%.5f vs 90%%=%.5f", rows[0].DeltaOpacity(), rows[2].DeltaOpacity())

	pts := Figure8(rows)
	bestHide, bestSurr := 0.0, 0.0
	for _, p := range pts {
		if p.Strategy == "Hide" && p.MaxUtility > bestHide {
			bestHide = p.MaxUtility
		}
		if p.Strategy == "Surrogate" && p.MaxUtility > bestSurr {
			bestSurr = p.MaxUtility
		}
	}
	add("F8", "Figure 8: the surrogate frontier dominates hide's", bestSurr >= bestHide,
		"max utility %.3f vs %.3f", bestSurr, bestHide)
	return claims, nil
}

// fig10Runs is how many 150-node Figure10 runs claim F10 takes medians
// over.
const fig10Runs = 5

// figure10Claim is claim F10 over the medians of fig10Runs Figure10 runs,
// each in a fresh directory, so that one stalled sample cannot decide it.
func figure10Claim() (Claim, error) {
	dir, err := os.MkdirTemp("", "plus-scorecard-*")
	if err != nil {
		return Claim{}, err
	}
	defer os.RemoveAll(dir)
	var hs, ss, cs []time.Duration
	for i := 0; i < fig10Runs; i++ {
		run, err := os.MkdirTemp(dir, "run-*")
		if err != nil {
			return Claim{}, err
		}
		f10, err := Figure10(run, 150)
		if err != nil {
			return Claim{}, err
		}
		hs = append(hs, f10.ProtectHide)
		ss = append(ss, f10.ProtectSurrogate)
		cs = append(cs, f10.StoreWrite+f10.DBAccess)
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	hide, surr, createDB := median(hs), median(ss), median(cs)
	return Claim{ID: "F10", Text: "Figure 10: protection cost is subsumed by graph creation and DB access",
		Pass: surr < createDB && hide < createDB, Detail: fmt.Sprintf("protect %v/%v vs create+db %v", hide, surr, createDB)}, nil
}

// ScorecardTable renders the scorecard.
func ScorecardTable() (*Table, error) {
	claims, err := Scorecard()
	return claimsTable(claims), err
}

func claimsTable(claims []Claim) *Table {
	t := &Table{
		Title:  "Reproduction scorecard: machine-checked paper claims",
		Header: []string{"claim", "verdict", "statement", "detail"},
	}
	for _, c := range claims {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		t.Add(c.ID, verdict, c.Text, c.Detail)
	}
	return t
}

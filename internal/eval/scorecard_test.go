package eval

import (
	"strings"
	"testing"
)

// TestScorecardAllClaimsPass checks the seven claims that read no clock.
// F10 compares timings, so tier-1 holds it by bytes instead (TestCostLedger's
// Figure 10 row) and `go run ./cmd/experiments -run scorecard` times it.
func TestScorecardAllClaimsPass(t *testing.T) {
	claims, err := clockFreeClaims()
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 7 {
		t.Fatalf("claims = %d, want 7", len(claims))
	}
	ids := map[string]bool{}
	for _, c := range claims {
		if ids[c.ID] {
			t.Errorf("duplicate claim id %s", c.ID)
		}
		ids[c.ID] = true
		if !c.Pass {
			t.Errorf("claim %s FAILED: %s (%s)", c.ID, c.Text, c.Detail)
		}
		if c.Detail == "" {
			t.Errorf("claim %s has no detail", c.ID)
		}
	}
	if !strings.Contains(claimsTable(claims).String(), "PASS") {
		t.Error("rendered scorecard missing verdicts")
	}
}

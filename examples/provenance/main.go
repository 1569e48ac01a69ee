// Provenance: the Appendix A example (Figure 11). An emergency treatment
// plan is derived from patient records, bio-threat intelligence and
// epidemic models; some contributing steps require National Security or
// Medical Provider privileges. An Emergency Responder querying the plan's
// lineage in a prior provenance system would learn nothing past the first
// sensitive ancestor — with surrogates, the chain stays informative.
//
// The example drives the full PLUS substrate: a durable store on disk, the
// lineage query engine, and the HTTP server with its Go SDK client.
//
// Run with:
//
//	go run ./examples/provenance
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/plus"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

func main() {
	dir, err := os.MkdirTemp("", "plus-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := plus.Open(filepath.Join(dir, "plus.log"), plus.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// Figure 11b privilege classes.
	lattice := privilege.AppendixLattice()
	engine := plus.NewEngine(store, lattice)

	// Figure 11a, abbreviated: the backbone from patient records to the
	// emergency treatment plan.
	objects := []plus.Object{
		{ID: "patient-records", Kind: plus.Data, Name: "Patient Records", Lowest: "MedicalProvider", Protect: "surrogate"},
		{ID: "aggregator", Kind: plus.Invocation, Name: "HIPAA-Compliant Aggregator"},
		{ID: "affected-count", Kind: plus.Data, Name: "Number of affected patients at facility"},
		// bio-intel keeps Visible incidences (Figure 2a style): its edges
		// attach to the surrogate version below NationalSecurity.
		{ID: "bio-intel", Kind: plus.Data, Name: "Bio-Threat Intelligence", Lowest: "NationalSecurity"},
		{ID: "projector", Kind: plus.Invocation, Name: "Epidemiological Projector EPFF v3", Lowest: "NationalSecurity", Protect: "surrogate"},
		{ID: "epidemic-model", Kind: plus.Data, Name: "Specific Epidemic Model"},
		{ID: "trend-sim", Kind: plus.Invocation, Name: "Trend Model Simulator"},
		{ID: "threat-level", Kind: plus.Data, Name: "Threat Level"},
		{ID: "supplies", Kind: plus.Data, Name: "Emergency Supplies Stockpile", Lowest: "ClearedEmergencyResponder", Protect: "surrogate"},
		{ID: "planning", Kind: plus.Invocation, Name: "Local Action Planning", Lowest: "ClearedEmergencyResponder", Protect: "surrogate"},
		{ID: "treatment-plan", Kind: plus.Data, Name: "Emergency Treatment Plan", Lowest: "EmergencyResponder"},
	}
	for _, o := range objects {
		if err := store.PutObject(o); err != nil {
			log.Fatal(err)
		}
	}
	edges := [][2]string{
		{"patient-records", "aggregator"},
		{"aggregator", "affected-count"},
		{"bio-intel", "projector"},
		{"projector", "epidemic-model"},
		{"affected-count", "trend-sim"},
		{"epidemic-model", "trend-sim"},
		{"trend-sim", "threat-level"},
		{"threat-level", "planning"},
		{"supplies", "planning"},
		{"planning", "treatment-plan"},
	}
	for _, e := range edges {
		if err := store.PutEdge(plus.Edge{From: e[0], To: e[1], Label: "input-to"}); err != nil {
			log.Fatal(err)
		}
	}
	// Providers publish less sensitive surrogates for two of the steps.
	surrogates := []plus.SurrogateSpec{
		{ForID: "bio-intel", ID: "bio-intel~", Name: "a federal intelligence source", Lowest: "EmergencyResponder", InfoScore: 0.3},
		{ForID: "planning", ID: "planning~", Name: "a regional planning process", Lowest: "EmergencyResponder", InfoScore: 0.5},
	}
	for _, sp := range surrogates {
		if err := store.PutSurrogate(sp); err != nil {
			log.Fatal(err)
		}
	}

	// An Emergency Responder asks: what contributed to the treatment plan?
	fmt.Println("lineage of the Emergency Treatment Plan, viewer = EmergencyResponder")

	hide, err := engine.Lineage(plus.Request{
		Start: "treatment-plan", Direction: graph.Backward,
		Viewer: "EmergencyResponder", Mode: plus.ModeHide,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprior systems (hide): %d nodes reachable\n", hide.Account.Graph.NumNodes())
	for _, e := range hide.Account.Graph.Edges() {
		fmt.Printf("  %s -> %s\n", e.From, e.To)
	}
	if !hide.Account.Graph.HasPath("threat-level", "treatment-plan") {
		fmt.Println("  -> the public Threat Level is cut off: its path runs through a cleared-only step")
	}

	surr, err := engine.Lineage(plus.Request{
		Start: "treatment-plan", Direction: graph.Backward,
		Viewer: "EmergencyResponder", Mode: plus.ModeSurrogate,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith surrogates: %d nodes reachable (%v protect time)\n",
		surr.Account.Graph.NumNodes(), surr.Timing.Protect)
	for _, e := range surr.Account.Graph.Edges() {
		marker := ""
		if surr.Account.SurrogateEdges[e.ID()] {
			marker = "   [surrogate edge]"
		}
		fmt.Printf("  %s -> %s%s\n", e.From, e.To, marker)
	}

	// The same queries work over HTTP.
	server := httptest.NewServer(plus.NewServer(engine))
	defer server.Close()
	client := plusclient.New(server.URL, plusclient.WithViewer("NationalSecurity"))
	resp, err := client.Lineage(context.Background(), plusclient.LineageRequest{Start: "treatment-plan"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nover HTTP, a NationalSecurity viewer sees the full lineage: %d nodes, path utility %.2f\n",
		len(resp.Nodes), resp.PathUtility)
}

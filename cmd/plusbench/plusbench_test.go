package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/plus"
)

var testGraph = graphParams{Nodes: 240, Seed: 7}

func keys(next func() op, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = next().key()
	}
	return out
}

func TestSequencesArePureFunctionsOfWorkloadSeedClient(t *testing.T) {
	for _, w := range workloads {
		a := keys(w.Seq(testGraph, 0), 200)
		b := keys(w.Seq(testGraph, 0), 200)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: two sequences of one (seed, client) differ", w.Name)
		}
		other := keys(w.Seq(graphParams{Nodes: testGraph.Nodes, Seed: 8}, 0), 200)
		if strings.Join(a, "\n") == strings.Join(other, "\n") {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w.Name)
		}
		if w.Clients > 1 {
			c1 := keys(w.Seq(testGraph, 1), 200)
			if strings.Join(a, "\n") == strings.Join(c1, "\n") {
				t.Errorf("%s: clients 0 and 1 issue the same sequence", w.Name)
			}
		}
	}
}

func TestColdLineageNeverRepeatsAStart(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < 2; c++ {
		next := coldSeq(graphParams{Nodes: 2000, Seed: 7}, c)
		for i := 0; i < 80; i++ {
			o := next()
			if seen[o.Start] {
				t.Fatalf("client %d op %d repeats start %s", c, i, o.Start)
			}
			if protectedID(o.Start) {
				t.Fatalf("start %s is protected", o.Start)
			}
			seen[o.Start] = true
		}
	}
}

func TestMixedServingWritesExactlyEveryFiftieth(t *testing.T) {
	next := mixedSeq(testGraph, 0)
	for i := 1; i <= 500; i++ {
		if o := next(); (o.Class == clsBatch) != (i%mixedWriteEvery == 0) {
			t.Fatalf("op %d is class %s", i, classNames[o.Class])
		}
	}
}

func TestWithoutReplacementSampler(t *testing.T) {
	draw := func(seed int64) []int {
		w := newWithoutReplacement(rng("test", seed, 0), 50)
		var out []int
		for {
			i, ok := w.next()
			if !ok {
				return out
			}
			out = append(out, i)
		}
	}
	a := draw(1)
	seen := map[int]bool{}
	for _, i := range a {
		if i < 0 || i >= 50 || seen[i] {
			t.Fatalf("draw %d out of range or repeated in %v", i, a)
		}
		seen[i] = true
	}
	if len(a) != 50 {
		t.Fatalf("drew %d of 50", len(a))
	}
	if b := draw(1); !equalInts(a, b) {
		t.Error("one seed gave two orders")
	}
	if c := draw(2); equalInts(a, c) {
		t.Error("two seeds gave one order")
	}
}

func equalInts(a, b []int) bool {
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

func TestZipfSamplerIsSkewedAndBounded(t *testing.T) {
	z := newZipf(rng("test", 1, 0), 100)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		k := z.Uint64()
		if k >= 100 {
			t.Fatalf("rank %d outside [0,100)", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[99] {
		t.Errorf("ranks not skewed: %d %d %d %d", counts[0], counts[1], counts[10], counts[99])
	}
}

func TestPercentileAndTail(t *testing.T) {
	var v []float64
	for i := 200; i >= 1; i-- {
		v = append(v, float64(i))
	}
	if got := percentile(v, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got, ok := tail(v); !ok || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", got, ok)
	}
	if _, ok := tail(v[:199]); ok {
		t.Error("p95 reported from 199 samples; it needs ten beyond the percentile")
	}
	if v[0] != 200 {
		t.Error("percentile reordered its argument")
	}
}

func TestProtectedID(t *testing.T) {
	for id, want := range map[string]bool{
		"n0000005": true, "n0000015": true, "n0000005~": false, "n0000004": false,
		"w0-0000005": true, "w1-0000015": true, "w0-0000005~": false, "w0-0000006": false, "403": false,
	} {
		if got := protectedID(id); got != want {
			t.Errorf("protectedID(%q) = %v, want %v", id, got, want)
		}
	}
}

// A Public reply that exposes a protected original must fail the op.
func TestIssueRejectsALeakedOriginal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(plus.LineageResponse{Nodes: []plus.LineageNode{{ID: "n0000004"}, {ID: "n0000005"}}})
	}))
	defer ts.Close()
	c := newClients(ts.URL)
	o := op{Class: clsLineage, Start: "n0000004", Depth: 3}
	if _, err := c.issue(context.Background(), o); err == nil || !strings.Contains(err.Error(), "leak") {
		t.Errorf("Public reply with n0000005 gave err = %v, want a leak", err)
	}
	o.Viewer = asProtected
	if _, err := c.issue(context.Background(), o); err != nil {
		t.Errorf("Protected viewer may see n0000005: %v", err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the harness must name the same workloads and the
// same metrics with the same units, in both directions.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bench, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Paths) != 1 || bench.Paths[0] != "cmd/plusbench" {
		t.Errorf("paths = %v", bench.Paths)
	}
	if bench.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", bench.RunSeconds, runSeconds)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].Name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].Name)
		}
		if w.Why != workloads[i].Why || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be the harness's, one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, file []benchmarkMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(file), len(defs))
			return
		}
		for i, m := range file {
			if m.Name != defs[i].Name || m.Unit != defs[i].Unit {
				t.Errorf("%s %d: %s [%s] vs %s [%s]", kind, i, m.Name, m.Unit, defs[i].Name, defs[i].Unit)
			}
			if !nameRE.MatchString(m.Name) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s: bad name or direction: %+v", kind, m)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := bench.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s, lower], got %+v", m)
	}
}

// A smoke run of every workload reports every metric the catalogue
// names — end-to-end ones non-zero — and verifies clean. The runs are
// traced, which reports both lists; one untraced run with two set-ups
// covers the path that replaces a set-up's server.
func TestSmokeRunReportsEveryMetric(t *testing.T) {
	l, err := newLauncher(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer l.cleanup()
	o := options{seed: 3, smoke: true}
	smoke := func(spec workloadSpec, traced bool, setups int) *runResult {
		cfg := o.config(spec, traced)
		cfg.Graph.Nodes, cfg.MaxOps, cfg.VerifySamples, cfg.Setups = testGraph.Nodes, spec.SmokeOps/2, 4, setups
		res, err := runWorkload(context.Background(), l, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced=%v: %d failed, problems %v", spec.Name, traced, res.Failed, res.Problems)
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: reported %d end-to-end metrics, catalogue has %d", spec.Name, len(res.EndToEnd), len(endToEnd))
		}
		for _, m := range endToEnd {
			// A run this short can stay under one 10 ms CPU tick.
			if v, ok := res.EndToEnd[m.Name]; !ok || (v <= 0 && m.Name != "cpu_ms_per_op") {
				t.Errorf("%s: end-to-end metric %s = %v, reported %v", spec.Name, m.Name, v, ok)
			}
		}
		return res
	}
	for _, spec := range workloads {
		res := smoke(spec, true, 1)
		if (spec.DigestOps > 0) == (res.Digest == "") {
			t.Errorf("%s: digest over %d ops reads %q", spec.Name, spec.DigestOps, res.Digest)
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: reported %d per-layer metrics, catalogue has %d", spec.Name, len(res.PerLayer), len(perLayer))
		}
		for _, m := range perLayer {
			if _, ok := res.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", spec.Name, m.Name)
			}
		}
		if len(res.Spans) < res.Attempted {
			t.Errorf("%s: %d spans for %d requests", spec.Name, len(res.Spans), res.Attempted)
		}
	}
	spec, _ := findWorkload("write_then_read")
	if res := smoke(spec, false, 2); res.PerLayer != nil {
		t.Error("an untraced run reported per-layer metrics")
	}
}

// check compares two sets of runs of one tree: a second set that reads
// much better is as much a disagreement as one that reads much worse.
func TestDisagreeIsTwoSided(t *testing.T) {
	for _, m := range []benchmarkMetric{
		{Name: "op_p50_ms", Better: "lower", Bound: 0.25},
		{Name: "ops_s", Better: "higher", Bound: 0.25},
	} {
		for _, tc := range []struct {
			a, b float64
			want bool
		}{{100, 110, false}, {100, 90, false}, {100, 140, true}, {100, 60, true}} {
			if got := disagree(m, tc.a, tc.b); got != tc.want {
				t.Errorf("%s: %v then %v: disagree = %v, want %v", m.Name, tc.a, tc.b, got, tc.want)
			}
		}
	}
}

// A run the deadline ends before a client's digest is complete must not
// pass: the digest of a shorter prefix is another digest.
func TestShortDigestFailsTheRun(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(plus.LineageResponse{})
	}))
	defer ts.Close()
	spec, _ := findWorkload("cold_lineage")
	d := &driver{clients: newClients(ts.URL), next: spec.Seq(testGraph, 0), digest: sha256.New()}
	// The deadline has passed before the first operation.
	d.drive(context.Background(), runConfig{Spec: spec, Graph: testGraph, Seconds: 1}, time.Now().Add(-time.Minute))
	if len(d.problems) != 1 || !strings.Contains(d.problems[0], "answers_digest") {
		t.Errorf("problems = %v, want one about the digest", d.problems)
	}
	d = &driver{clients: newClients(ts.URL), next: spec.Seq(testGraph, 0), digest: sha256.New()}
	d.drive(context.Background(), runConfig{Spec: spec, Graph: testGraph, MaxOps: 3}, time.Now())
	if len(d.problems) != 0 || d.attempted != 3 {
		t.Errorf("a count-bounded run: %d attempted, problems %v", d.attempted, d.problems)
	}
}

func TestVerdictAppliesThePairedRule(t *testing.T) {
	lower := benchmarkMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	parent := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	shift := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"clear win", shift(0.8), "gain"},
		{"beyond the bound", shift(1.2), "REGRESSION"},
		{"inside the noise", shift(1.001), "within bound"},
		{"wins but within the parent's spread", []float64{9.99, 10.09, 9.89, 10.19, 9.79, 9.99, 10.09, 9.89, 9.99, 9.99}, "within bound"},
	} {
		if got, _ := verdict(lower, parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	noisy := []float64{10, 14, 7, 12, 8, 15, 6, 11, 9, 13}
	if got, _ := verdict(lower, noisy, noisy); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}

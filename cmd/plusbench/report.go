package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is what a number is meaningless without.
type environment struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"goVersion"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpuModel"`
	Kernel     string   `json:"kernel"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Command    []string `json:"command"`
	// Held constant on every workload.
	Nodes        int     `json:"nodes"`
	EdgesPerNode int     `json:"edgesPerNode"`
	ProtectEvery int     `json:"protectEvery"`
	Seconds      float64 `json:"seconds"`
	Seed         int64   `json:"seed"`
}

func describeEnvironment(o options) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		Kernel: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), Command: os.Args,
		Nodes: o.nodes(), EdgesPerNode: edgesPerNode, ProtectEvery: protectEvery,
		Seconds: o.seconds, Seed: o.seed,
	}
	// A checkout that is not a git repository simply has no commit.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				env.CPUModel = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

// workloadReport pairs a workload's two runs: end-to-end metrics come
// from the untraced one, per-layer metrics from the traced one.
type workloadReport struct {
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced"`
	// TraceOverheadPct is how much slower (ops_s) the traced run was.
	TraceOverheadPct float64 `json:"trace_overhead_pct"`
}

type fullReport struct {
	Environment environment      `json:"environment"`
	Workloads   []workloadReport `json:"workloads"`
}

// runAll runs every workload untraced and then traced, prints both and
// writes report.json and the trace files under -out.
func runAll(ctx context.Context, stdout io.Writer, l *launcher, o options) error {
	rep := fullReport{Environment: describeEnvironment(o)}
	env, err := json.MarshalIndent(rep.Environment, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "environment %s\n", env)
	incorrect := 0
	for _, spec := range workloads {
		var wr workloadReport
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(ctx, l, o.config(spec, traced))
			if err != nil {
				return err
			}
			if err := record(o, res); err != nil {
				return err
			}
			printResult(stdout, spec, res)
			if !res.Correct {
				incorrect++
			}
			if traced {
				wr.Traced = res
			} else {
				wr.Untraced = res
			}
		}
		if wr.Untraced.Digest != wr.Traced.Digest {
			return fmt.Errorf("%s: answers_digest %s untraced, %s traced: one seed must give one digest", spec.Name, wr.Untraced.Digest, wr.Traced.Digest)
		}
		u, t := wr.Untraced.EndToEnd["ops_s"], wr.Traced.EndToEnd["ops_s"]
		wr.TraceOverheadPct = (u - t) / u * 100
		fmt.Fprintf(stdout, "%-34s %12.1f untraced %12.1f traced  trace_overhead_pct %.2f %%\n\n", "ops_s", u, t, wr.TraceOverheadPct)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, "report.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "report and traces written under %s\n", o.out)
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed verification", incorrect)
	}
	return nil
}

// printResult prints every metric of one run by name with its unit.
func printResult(w io.Writer, spec workloadSpec, res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %s backend, %d client(s), closed loop; set-ups %.1f s, measured %.2f s, verification %.1f s)\n",
		spec.Name, mode, res.Seed, spec.Backend, spec.Clients, res.SetupsS, res.Measured, res.VerifyS)
	fmt.Fprintf(w, "   %s\n", spec.Why)
	var counts []string
	for c, name := range classNames {
		if n := res.Samples[name]; n > 0 {
			mark := ""
			if c == spec.Headline {
				mark = " (headline: op_p50_ms)"
			}
			counts = append(counts, fmt.Sprintf("%s %d%s", name, n, mark))
		}
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, correct %v; samples: %s\n", res.Attempted, res.Failed, res.Correct, strings.Join(counts, ", "))
	if res.Digest != "" {
		fmt.Fprintf(w, "   answers_digest %s\n", res.Digest)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   PROBLEM %s\n", p)
	}
	defs, values := endToEnd, res.EndToEnd
	if res.Traced {
		defs, values = perLayer, res.PerLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worseBy(m benchmarkMetric, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// disagree reports whether two runs of the same code differ on a gated
// metric by more than its bound, whichever of the two reads better.
func disagree(m benchmarkMetric, a, b float64) bool { return math.Abs(worseBy(m, a, b)) > m.Bound }

// check runs the whole set twice on the same tree and fails if the two
// sets disagree: a gated cell differs by more than its bound in
// BENCHMARK.json, in either direction, or a read-only workload's answers
// hash to two digests.
func check(ctx context.Context, stdout io.Writer, l *launcher, o options) error {
	bench, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	// Each workload's two runs are adjacent in time, so a machine that
	// drifts over minutes slows both alike.
	sets := [2]map[string]*runResult{{}, {}}
	for _, spec := range workloads {
		for i := range sets {
			res, err := runWorkload(ctx, l, o.config(spec, false))
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: verification failed: %v", spec.Name, res.Problems)
			}
			sets[i][spec.Name] = res
			fmt.Fprintf(stdout, "set %d: %s done (%.1f ops/s)\n", i+1, spec.Name, res.EndToEnd["ops_s"])
		}
		if a, b := sets[0][spec.Name].Digest, sets[1][spec.Name].Digest; a != b {
			return fmt.Errorf("%s: answers_digest %s then %s: one seed must give one digest", spec.Name, a, b)
		}
	}
	fmt.Fprintf(stdout, "\n%-18s %-16s %14s %14s %9s %7s\n", "metric", "workload", "first", "second", "worse by", "bound")
	beyond := 0
	for _, m := range bench.EndToEnd {
		for _, spec := range workloads {
			a, b := sets[0][spec.Name].EndToEnd[m.Name], sets[1][spec.Name].EndToEnd[m.Name]
			w := worseBy(m, a, b)
			mark := ""
			if w > m.Bound {
				mark = "  BEYOND BOUND"
				beyond++
			}
			fmt.Fprintf(stdout, "%-18s %-16s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", m.Name, spec.Name, a, b, w*100, m.Bound*100, mark)
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d cell(s) disagree by more than their bound", beyond)
	}
	return nil
}

// readRuns reads an -append file: one untraced runResult per line.
func readRuns(path string) (map[string][]*runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]*runResult{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs[r.Workload] = append(runs[r.Workload], &r)
	}
	return runs, sc.Err()
}

// minPairs is the least number of alternating parent/change pairs the
// comparison rule accepts.
const minPairs = 10

// verdict applies the measurement rule to one (metric, workload) cell:
// a gain needs the change to win at least nine tenths of the pairs and
// the medians to differ by more than the parent's own interquartile
// range; a regression is a median worse than the parent's by more than
// the bound; a spread wider than the bound leaves the cell unresolved
// unless every run of the change reads better than every parent run;
// anything else is within the bound, which is all "no regression" means.
func verdict(m benchmarkMetric, parent, change []float64) (string, int) {
	wins := 0
	for i := range parent {
		if worseBy(m, parent[i], change[i]) < 0 {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	iqr := percentile(parent, 0.75) - percentile(parent, 0.25)
	gap := cm - pm
	if gap < 0 {
		gap = -gap
	}
	worse := worseBy(m, pm, cm)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if worseBy(m, p, c) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > m.Bound:
		return "REGRESSION", wins
	case worse < 0 && float64(wins) >= 0.9*float64(len(parent)) && gap > iqr:
		return "gain", wins
	case iqr/pm > m.Bound && !allBetter:
		return "unresolved", wins
	default:
		return "within bound", wins
	}
}

// compareFiles pairs the i-th run of each workload in the parent's file
// with the i-th in the change's and prints one row per cell.
func compareFiles(stdout io.Writer, parentPath, changePath string) error {
	bench, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-18s %-16s %5s %14s %14s %12s %5s  %s\n", "metric", "workload", "pairs", "parent median", "change median", "parent IQR", "wins", "verdict")
	regressions := 0
	for _, name := range names {
		p, c := parent[name], change[name]
		if len(p) != len(c) || len(p) < minPairs {
			return fmt.Errorf("%s: %d parent and %d change runs; the rule needs at least %d pairs, run alternately", name, len(p), len(c), minPairs)
		}
		for _, m := range bench.EndToEnd {
			pv, cv := make([]float64, len(p)), make([]float64, len(c))
			for i := range p {
				pv[i], cv[i] = p[i].EndToEnd[m.Name], c[i].EndToEnd[m.Name]
			}
			v, wins := verdict(m, pv, cv)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(stdout, "%-18s %-16s %5d %14.4f %14.4f %12.4f %2d/%-2d  %s\n", m.Name, name, len(p),
				median(pv), median(cv), percentile(pv, 0.75)-percentile(pv, 0.25), wins, len(p), v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d cell(s) regressed beyond their bound", regressions)
	}
	return nil
}

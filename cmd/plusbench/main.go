// Command plusbench is the repository's benchmark: five named workloads
// driven over pkg/plusclient against a separate-process plusd built from
// the working tree, reporting the end-to-end and per-layer metrics that
// BENCHMARK.json names. README.md in this directory documents the
// workloads, the metrics and how to compare two commits.
//
// Usage (from the repository root):
//
//	go run ./cmd/plusbench -seed 1                 # every workload, untraced then traced
//	go run ./cmd/plusbench -workload hot_read -seed 1 -seconds 15 -trace 0
//	go run ./cmd/plusbench -layers                 # the in-process layer ladder
//	go run ./cmd/plusbench check                   # the set twice; fails if they disagree
//	go run ./cmd/plusbench compare A.jsonl B.jsonl # paired runs of two commits
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// options are the command-line settings shared by every mode.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	appendTo string
	smoke    bool
	layers   bool
}

// nodes is the graph size: BENCHMARK.json's bounds hold at fullNodes only.
func (o options) nodes() int {
	if o.smoke {
		return smokeNodes
	}
	return fullNodes
}

func main() {
	// nproc is 2 on the reference box and plusd needs its share: the
	// generator never runs more threads or connections than that.
	runtime.GOMAXPROCS(2)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "plusbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return fmt.Errorf("usage: plusbench compare A.jsonl B.jsonl")
		}
		return compareFiles(stdout, args[1], args[2])
	}
	checking := len(args) > 0 && args[0] == "check"
	if checking {
		args = args[1:]
	}

	var o options
	fs := flag.NewFlagSet("plusbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's JSON result as the last line")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the graph and of every operation sequence")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of each measured phase")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 1 runs traced and prints the per-layer metrics, 0 the end-to-end ones")
	fs.StringVar(&o.out, "out", filepath.Join(buildDir, "out"), "directory for report.json and the trace files")
	fs.StringVar(&o.appendTo, "append", "", "append each untraced result to this file as one JSON line (input of compare)")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny graph, ~100 operations per workload, in-process server")
	fs.BoolVar(&o.layers, "layers", false, "run the in-process layer ladder instead of the workloads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace wants 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	if o.layers {
		return runLadder(stdout, o)
	}

	plusd := ""
	if !o.smoke {
		var err error
		if plusd, err = buildPlusd(); err != nil {
			return err
		}
	}
	l, err := newLauncher(buildDir, plusd)
	if err != nil {
		return err
	}
	defer l.cleanup()
	// A signal stops every child and removes the data dirs before exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		l.cleanup()
		os.Exit(130)
	}()

	ctx := context.Background()
	switch {
	case checking:
		return check(ctx, stdout, l, o)
	case o.workload != "":
		return runOne(ctx, stdout, l, o)
	default:
		return runAll(ctx, stdout, l, o)
	}
}

// config resolves the options into one workload's run.
func (o options) config(spec workloadSpec, traced bool) runConfig {
	cfg := runConfig{Spec: spec, Graph: graphParams{Nodes: o.nodes(), Seed: o.seed},
		Seconds: o.seconds, Setups: setups, VerifySamples: verifySamples, Traced: traced}
	if traced {
		// Set-up metrics come from the untraced run.
		cfg.Setups = 1
	}
	if o.smoke {
		cfg.Seconds, cfg.MaxOps, cfg.Setups = 0, spec.SmokeOps, 1
	}
	return cfg
}

// driverLine is the benchmark contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, traced or not, a readable
// summary, then the result object as the last line of standard output.
func runOne(ctx context.Context, stdout io.Writer, l *launcher, o options) error {
	spec, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(ctx, l, o.config(spec, o.trace == 1))
	if err != nil {
		return err
	}
	if err := record(o, res); err != nil {
		return err
	}
	printResult(stdout, spec, res)
	defs, values := endToEnd, res.EndToEnd
	if res.Traced {
		defs, values = perLayer, res.PerLayer
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: values[d.Name], Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !res.Correct {
		return fmt.Errorf("%s: answers failed verification", spec.Name)
	}
	return nil
}

// record writes what a run leaves behind: its spans under -out and, for
// untraced runs, one line of -append.
func record(o options, res *runResult) error {
	if res.Traced {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		return writeSpans(filepath.Join(o.out, "trace-"+res.Workload+".json"), res.Spans)
	}
	if o.appendTo == "" {
		return nil
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.appendTo, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command bench is segugiod's end-to-end benchmark: it synthesises a
// seeded multi-day ISP DNS stream, trains a detector, builds
// ./cmd/segugiod from the tree, runs it as a separate process and drives
// it over real sockets, reading results only from the outside.
//
//	go run ./bench                                all workloads x 3 repeats, then the traced run
//	go run ./bench -only live-paced -repeats 1    one workload while working
//	go run ./bench -trace                         the traced run alone
//	go run ./bench -compare A.json B.json         two archived results, metric by metric
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                              one run, one result line (BENCHMARK.json's contract)
//
// See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the measured window of one run; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 12

// contractLimit is how long a contract run may take before it gives up.
const contractLimit = 170 * time.Second

// contractTraceSlices bounds the traced replay inside a contract run,
// which has a time limit; `go run ./bench -trace` replays the whole day.
const contractTraceSlices = 8

func main() {
	// The harness shares the machine with the daemon it measures: collect
	// its own garbage rarely.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errGate is returned when every run completed but a correctness gate
// failed: the numbers were printed, the exit code still says no.
var errGate = errors.New("a correctness gate failed")

func run(ctx context.Context, args []string) error {
	// -trace is a switch on its own and takes 0|1 in a contract run.
	for i := 0; i+1 < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && (args[i+1] == "0" || args[i+1] == "1") {
			args = append(append(append([]string{}, args[:i]...), "-trace="+args[i+1]), args[i+2:]...)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wl := fs.String("workload", "", "contract run: this one workload, once, one JSON result line on stdout")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window of each run")
	var trace traceFlag
	fs.Var(&trace, "trace", "alone: only the traced run; with -workload: 0 prints end-to-end metrics, 1 per-layer metrics")
	only := fs.String("only", "", "comma-separated workloads to run (harness convenience; default all)")
	repeats := fs.Int("repeats", 3, "runs per workload; medians and quartiles are over them (harness convenience)")
	scaleName := fs.String("scale", "isp-50k", "isp-50k (every reported number) or tiny (smoke tests only)")
	cmp := fs.Bool("compare", false, "compare two archived results: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two result files")
		}
		return compare(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown -scale %q", *scaleName)
	}
	if *seconds <= 0 || *repeats <= 0 {
		return errors.New("-seconds and -repeats must be positive")
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out"), sc: sc, log: os.Stderr}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}

	if *wl != "" {
		return e.contractRun(ctx, *wl, *seed, *seconds, trace.value == "1")
	}
	if trace.set && *only == "" {
		return e.traceOnly(ctx, *seed)
	}
	return e.fullRun(ctx, *seed, *seconds, *repeats, *only)
}

// traceFlag is -trace: a bare switch, or 0|1 in a contract run.
type traceFlag struct {
	set   bool
	value string
}

func (t *traceFlag) String() string   { return t.value }
func (t *traceFlag) IsBoolFlag() bool { return true }
func (t *traceFlag) Set(s string) error {
	switch s {
	case "true", "0", "1":
		t.set, t.value = true, s
		return nil
	}
	return fmt.Errorf("want -trace, -trace=0 or -trace=1")
}

// contractResult is the one JSON object a contract run prints last.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRun is one invocation by the benchmark driver: one workload,
// one seed, one window; end-to-end metrics, or with traced the per-layer
// ones (the run's own scrape plus a short traced replay).
func (e *env) contractRun(ctx context.Context, name string, seed int64, seconds float64, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown -workload %q", name)
	}
	// The contract gives a run 180 s; a harness that hangs is worse than
	// one that fails.
	ctx, cancel := context.WithTimeoutCause(ctx, contractLimit, fmt.Errorf("the run did not finish within %s", contractLimit))
	defer cancel()
	var err error
	if e.bin, err = buildDaemon(ctx, e.root, e.outDir); err != nil {
		return err
	}
	res, err := e.run(ctx, w, seed, seconds)
	if err != nil {
		return err
	}
	out := contractResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	if !traced {
		for _, def := range endToEnd {
			out.Metrics[def.Name] = contractMetric{Value: res.Metrics[def.Name], Unit: def.Unit}
		}
	} else {
		tr, err := e.traceRun(ctx, seed, contractTraceSlices)
		if err != nil {
			return err
		}
		for _, def := range perLayer {
			v, ok := res.Layers[def.Name]
			if !ok {
				v = tr.Metrics[def.Name]
			}
			out.Metrics[def.Name] = contractMetric{Value: v, Unit: def.Unit}
		}
	}
	res.describe(e.log)
	return json.NewEncoder(os.Stdout).Encode(out)
}

// traceOnly is `go run ./bench -trace`: the whole day, traced.
func (e *env) traceOnly(ctx context.Context, seed int64) error {
	tr, err := e.traceRun(ctx, seed, 0)
	if err != nil {
		return err
	}
	rep := &report{Host: hostRecord(e.root), Scale: e.sc.name, Seed: seed, Trace: tr.Metrics}
	rep.print(os.Stdout)
	return e.writeTrace(tr)
}

func (e *env) writeTrace(tr *traceResult) error {
	return writeJSON(filepath.Join(e.outDir, "trace.json"), struct {
		Host host `json:"host"`
		*traceResult
	}{hostRecord(e.root), tr})
}

// fullRun is `go run ./bench`: every selected workload repeats times,
// then the traced run; everything printed by name and archived under
// bench/out. The exit code is non-zero if a correctness gate failed.
func (e *env) fullRun(ctx context.Context, seed int64, seconds float64, repeats int, only string) error {
	selected := workloads
	if only != "" {
		selected = nil
		for _, name := range strings.Split(only, ",") {
			w, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown workload %q in -only", name)
			}
			selected = append(selected, w)
		}
	}
	var err error
	if e.bin, err = buildDaemon(ctx, e.root, e.outDir); err != nil {
		return err
	}
	rep := &report{
		Host: hostRecord(e.root), Scale: e.sc.name, Seed: seed, Seconds: seconds, Repeats: repeats,
		EndToEnd: endToEnd, Workloads: map[string]*workloadReport{},
	}
	correct := true
	for _, w := range selected {
		var runs []*runResult
		for i := 0; i < repeats; i++ {
			fmt.Fprintf(e.log, "%s: repeat %d of %d\n", w.name, i+1, repeats)
			// Repeats share the seed: they measure the run-to-run spread
			// of one input, not the spread across inputs.
			res, err := e.run(ctx, w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			runs = append(runs, res)
			correct = correct && res.Correct
		}
		rep.Workloads[w.name] = summarizeRuns(w, runs)
	}
	if only == "" {
		fmt.Fprintln(e.log, "traced run")
		tr, err := e.traceRun(ctx, seed, 0)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		rep.Trace = tr.Metrics
		if err := e.writeTrace(tr); err != nil {
			return err
		}
	}
	rep.print(os.Stdout)
	if err := writeJSON(filepath.Join(e.outDir, "result.json"), rep); err != nil {
		return err
	}
	if !correct {
		return errGate
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host is the machine and build a result was measured on. Results from
// hosts with different parallelism are never compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostRecord(root string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	} else if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				h.Commit = kv.Value
			}
		}
	}
	return h
}

// workloadReport is every repeat of one workload, summarised.
type workloadReport struct {
	Why            string             `json:"why"`
	Metrics        map[string]summary `json:"metrics"` // end to end
	Layers         map[string]summary `json:"layers"`  // per layer
	Attempted      int64              `json:"attempted"`
	Failed         int64              `json:"failed"`
	FailedOpsRatio float64            `json:"failed_ops_ratio"`
	Correct        bool               `json:"correct"`
	Runs           []*runResult       `json:"runs"`
}

// report is what one full invocation archives as bench/out/result.json.
type report struct {
	Host      host                       `json:"host"`
	Scale     string                     `json:"scale"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Repeats   int                        `json:"repeats"`
	EndToEnd  []metricDef                `json:"end_to_end"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Trace     map[string]float64         `json:"trace,omitempty"`
}

func summarizeRuns(w workload, runs []*runResult) *workloadReport {
	wr := &workloadReport{Why: w.why, Metrics: map[string]summary{}, Layers: map[string]summary{}, Correct: true, Runs: runs}
	values := map[string][]float64{}
	layers := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r.Metrics {
			values[k] = append(values[k], v)
		}
		for k, v := range r.Layers {
			layers[k] = append(layers[k], v)
		}
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Correct = wr.Correct && r.Correct
	}
	for k, v := range values {
		wr.Metrics[k] = summarize(v)
	}
	for k, v := range layers {
		wr.Layers[k] = summarize(v)
	}
	if wr.Attempted > 0 {
		wr.FailedOpsRatio = float64(wr.Failed) / float64(wr.Attempted)
	}
	return wr
}

// print renders the report for people: every metric by name with its
// unit, median, quartiles and sample count, per workload.
func (rep *report) print(w io.Writer) {
	h := rep.Host
	fmt.Fprintf(w, "host: %d CPUs (GOMAXPROCS %d), %s, %s, commit %s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	fmt.Fprintf(w, "scale %s, seed %d", rep.Scale, rep.Seed)
	if rep.Repeats > 0 {
		fmt.Fprintf(w, ", %.0fs windows, %d repeats", rep.Seconds, rep.Repeats)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		wr, ok := rep.Workloads[wl.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n", wl.name)
		fmt.Fprintf(w, "  %-36s %14s %14s %14s %3s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
		for _, def := range rep.EndToEnd {
			s := wr.Metrics[def.Name]
			fmt.Fprintf(w, "  %-36s %14.4f %14.4f %14.4f %3d  %s\n", def.Name, s.Median, s.Q1, s.Q3, s.N, def.Unit)
		}
		fmt.Fprintf(w, "  %-36s %14.3g %44s\n", "failed_ops_ratio", wr.FailedOpsRatio, fmt.Sprintf("(%d of %d operations)  ratio", wr.Failed, wr.Attempted))
		names := make([]string, 0, len(wr.Layers))
		for n := range wr.Layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := wr.Layers[n]
			fmt.Fprintf(w, "  %-36s %14.6g %14.6g %14.6g %3d  %s\n", n, s.Median, s.Q1, s.Q3, s.N, layerUnit(n))
		}
		for _, r := range wr.Runs {
			for _, g := range r.Gates {
				fmt.Fprintf(w, "  GATE FAILED (seed %d): %s\n", r.Seed, g)
			}
			for _, warn := range r.Warnings {
				fmt.Fprintf(w, "  WARNING (seed %d): %s\n", r.Seed, warn)
			}
		}
	}
	if len(rep.Trace) > 0 {
		fmt.Fprintf(w, "\n== traced run ==\n")
		names := make([]string, 0, len(rep.Trace))
		for n := range rep.Trace {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-36s %14.6g  %s\n", n, rep.Trace[n], layerUnit(n))
		}
	}
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare prints each end-to-end metric of each workload of two
// archived reports in its own row, against its bound. A pairing whose
// run-to-run spread exceeds the bound is unresolved, never "unchanged".
func compare(w io.Writer, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	if a.Host.NProc != b.Host.NProc {
		return fmt.Errorf("refusing to compare: %s was measured on %d CPUs, %s on %d", pathA, a.Host.NProc, pathB, b.Host.NProc)
	}
	if a.Scale != b.Scale || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare: %s is %s/%.0fs, %s is %s/%.0fs", pathA, a.Scale, a.Seconds, pathB, b.Scale, b.Seconds)
	}
	fmt.Fprintf(w, "A: %s (commit %s, seed %d, n=%d)\nB: %s (commit %s, seed %d, n=%d)\n",
		pathA, a.Host.Commit, a.Seed, a.Repeats, pathB, b.Host.Commit, b.Seed, b.Repeats)
	fmt.Fprintf(w, "%-14s %-28s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := wa.Metrics[def.Name], wb.Metrics[def.Name]
			change := (sb.Median - sa.Median) / math.Abs(sa.Median)
			worse := change
			if def.Better == "higher" {
				worse = -change
			}
			sp := max(spread(sa.Values), spread(sb.Values))
			verdict := "within bound"
			switch {
			case sa.N < 2 || sb.N < 2 || math.IsNaN(sp) || sp > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "REGRESSED"
			case -worse > sp:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-28s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.name, def.Name, sa.Median, sb.Median, 100*change, 100*sp, 100*def.Bound, verdict)
		}
		fa, fb := wa.FailedOpsRatio, wb.FailedOpsRatio
		verdict := "equal"
		if fb > fa {
			verdict = "ROSE"
		} else if fb < fa {
			verdict = "fell"
		}
		fmt.Fprintf(w, "%-14s %-28s %14.3g %14.3g %8s %8s %7s  %s\n", wl.name, "failed_ops_ratio", fa, fb, "", "", "none", verdict)
	}
	return nil
}

// Command segugio is the operational entry point to the Segugio pipeline:
// it trains behavior-based detectors from a day of DNS query logs plus
// ground-truth feeds, and classifies the unknown domains of later days to
// surface new malware-control domains and the machines querying them.
//
// Subcommands:
//
//	segugio generate -out data/              synthesize a demo ISP dataset
//	segugio train    -data data/ -day 170 -model det.bin
//	segugio classify -data data/ -day 183 -model det.bin -top 20
//
// File formats are documented in internal/logio. See the README for a
// walkthrough.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/eval"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/logio"
	"segugio/internal/pdns"
	reportpkg "segugio/internal/report"
	"segugio/internal/trace"
	"segugio/internal/tracker"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "segugio:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(ctx, args[1:])
	case "train":
		return cmdTrain(ctx, args[1:])
	case "classify":
		return cmdClassify(ctx, args[1:])
	case "evaluate":
		return cmdEvaluate(ctx, args[1:])
	case "track":
		return cmdTrack(ctx, args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: segugio <subcommand> [flags]

  generate   synthesize a demo ISP dataset (query logs + ground truth)
  train      learn a detector from one observation day
  classify   score the unknown domains of an observation day
  evaluate   run the cross-day train/test protocol and print the ROC
  track      classify several consecutive days and diff the detections

Run 'segugio <subcommand> -h' for flags.
`)
}

// ---- generate ----

func cmdGenerate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	out := fs.String("out", "data", "output directory")
	seed := fs.Int64("seed", 42, "generator seed")
	days := fs.String("days", "170,183", "comma-separated observation days to emit query logs for")
	machines := fs.Int("machines", 2000, "ordinary machine count")
	eventsOut := fs.String("events-out", "", "also write a replayable live event stream (for segugiod -events) to this file")
	eventsFormat := fs.String("events-format", "text", `live event stream format: "text" lines or "binary" (segb1 framing with interned symbols)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dayList, err := parseDays(*days)
	if err != nil {
		return err
	}
	if *eventsFormat != "text" && *eventsFormat != "binary" {
		return fmt.Errorf("-events-format: want \"text\" or \"binary\", got %q", *eventsFormat)
	}

	cfg := trace.DefaultConfig("DEMO", *seed)
	cfg.Machines = *machines
	cat, err := trace.NewCatalog(cfg)
	if err != nil {
		return err
	}
	gen := trace.NewGenerator(cat)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	// Ground-truth feeds.
	bl := cat.Blacklist(trace.BlacklistConfig{Coverage: 0.75, MeanListingDelayDays: 3, Salt: 1})
	arch := cat.RankArchive(trace.RankArchiveConfig{Days: 30, ListLen: 3 * cfg.BenignE2LDs / 4, JitterFraction: 0.02})
	wl, err := intel.BuildWhitelist(arch, intel.WhitelistConfig{ExcludeZones: cat.KnownFreeRegZones(0.6)})
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(*out, "blacklist.tsv"), func(w *bufio.Writer) error {
		return logio.WriteBlacklist(w, bl)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(*out, "whitelist.txt"), func(w *bufio.Writer) error {
		return logio.WriteWhitelist(w, wl)
	}); err != nil {
		return err
	}

	// Passive DNS history covering the feature look-backs of every
	// requested day.
	db := pdns.NewDB()
	maxDay := dayList[len(dayList)-1]
	cat.EmitPDNSHistory(db, 0, maxDay)
	if err := writeFile(filepath.Join(*out, "pdns.tsv"), func(w *bufio.Writer) error {
		var werr error
		db.ForEachRecord(0, maxDay, func(day int, domain string, ip dnsutil.IPv4) {
			if werr == nil {
				werr = logio.WritePDNSRecord(w, day, domain, ip)
			}
		})
		return werr
	}); err != nil {
		return err
	}

	// Daily activity digest covering every requested day's F2 look-back.
	minDay, maxDay2 := dayList[0], dayList[len(dayList)-1]
	if err := writeFile(filepath.Join(*out, "activity.tsv"), func(w *bufio.Writer) error {
		for d := minDay - 13; d <= maxDay2; d++ {
			for id := int32(0); int(id) < cat.NumDomains(); id++ {
				if !cat.ActiveOn(d, id) {
					continue
				}
				if err := logio.WriteActivityMark(w, d, cat.Name(id)); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Optional interleaved live event stream, replayable through
	// `segugiod -events` (text or segb1 binary, same events either way).
	var emitEvent func(e logio.Event) error
	closeEvents := func() error { return nil }
	eventCount := 0
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 256<<10)
		if *eventsFormat == "binary" {
			enc := logio.NewEventEncoder(bw)
			emitEvent = enc.Encode
			closeEvents = func() error {
				if err := enc.Flush(); err != nil {
					f.Close()
					return err
				}
				if err := bw.Flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
		} else {
			emitEvent = func(e logio.Event) error { return logio.WriteEvent(bw, e) }
			closeEvents = func() error {
				if err := bw.Flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
		}
	}

	// Per-day query logs and resolutions.
	for _, day := range dayList {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := gen.GenerateDay(day)
		if err := writeFile(filepath.Join(*out, fmt.Sprintf("queries-%d.tsv", day)), func(w *bufio.Writer) error {
			for _, e := range tr.Edges {
				if err := logio.WriteQuery(w, tr.MachineIDs[e.Machine], cat.Name(e.Domain)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(*out, fmt.Sprintf("resolutions-%d.tsv", day)), func(w *bufio.Writer) error {
			seen := map[int32]struct{}{}
			for _, e := range tr.Edges {
				if _, dup := seen[e.Domain]; dup {
					continue
				}
				seen[e.Domain] = struct{}{}
				if err := logio.WriteResolution(w, cat.Name(e.Domain), cat.ResolveOn(day, e.Domain)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if emitEvent != nil {
			// Interleave the day's traffic as segugiod would see it live: a
			// domain's resolution event rides with its first query.
			seen := map[int32]struct{}{}
			for _, e := range tr.Edges {
				if _, dup := seen[e.Domain]; !dup {
					seen[e.Domain] = struct{}{}
					if err := emitEvent(logio.Event{Kind: logio.EventResolution, Day: day,
						Domain: cat.Name(e.Domain), IPs: cat.ResolveOn(day, e.Domain)}); err != nil {
						return err
					}
					eventCount++
				}
				if err := emitEvent(logio.Event{Kind: logio.EventQuery, Day: day,
					Machine: tr.MachineIDs[e.Machine], Domain: cat.Name(e.Domain)}); err != nil {
					return err
				}
				eventCount++
			}
		}
		fmt.Printf("day %d: %d queries written\n", day, len(tr.Edges))
	}
	if err := closeEvents(); err != nil {
		return err
	}
	if *eventsOut != "" {
		fmt.Printf("event stream in %s (%s, %d events)\n", *eventsOut, *eventsFormat, eventCount)
	}
	fmt.Printf("dataset in %s (blacklist %d domains, whitelist %d e2LDs, pdns %d records)\n",
		*out, bl.Len(), wl.Len(), db.Len())
	return nil
}

// ---- train ----

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	data := fs.String("data", "data", "dataset directory (as written by generate)")
	day := fs.Int("day", 170, "training observation day")
	model := fs.String("model", "detector.bin", "output model path")
	fpBudget := fs.Float64("fp-budget", 0.001, "false-positive budget for threshold calibration")
	valFraction := fs.Float64("val-fraction", 0.3, "fraction of known domains held out for calibration")
	psl := fs.String("psl", "", "optional public-suffix-list file (publicsuffix.org format)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	env, err := loadDayEnv(*data, *day, *psl)
	if err != nil {
		return err
	}

	// Calibration pass: hide a validation share of the known domains,
	// train on the rest, and pick the threshold hitting the FP budget.
	rng := rand.New(rand.NewSource(7))
	val := map[string]struct{}{}
	var valDomains []string
	var valLabels []int
	for d := int32(0); d < int32(env.graph.NumDomains()); d++ {
		name := env.graph.DomainName(d)
		isMal := env.blacklist.Contains(name, *day)
		isBen := env.whitelist.ContainsE2LD(env.graph.DomainE2LD(d))
		if (!isMal && !isBen) || rng.Float64() > *valFraction {
			continue
		}
		val[name] = struct{}{}
		valDomains = append(valDomains, name)
		if isMal {
			valLabels = append(valLabels, 1)
		} else {
			valLabels = append(valLabels, 0)
		}
	}
	env.label(val)

	if err := ctx.Err(); err != nil {
		return err
	}
	t0 := time.Now()
	det, report, err := core.Train(core.DefaultConfig(), core.TrainInput{
		Graph: env.graph, Activity: env.activity, Abuse: env.abuse, Exclude: val,
	})
	if err != nil {
		return err
	}
	dets, _, err := det.Classify(core.ClassifyInput{
		Graph: env.graph, Activity: env.activity, Abuse: env.abuse, Domains: valDomains,
	})
	if err != nil {
		return err
	}
	scores := map[string]float64{}
	for _, d := range dets {
		scores[d.Domain] = d.Score
	}
	valScores := make([]float64, len(valDomains))
	for i, name := range valDomains {
		valScores[i] = scores[name]
	}
	curve, err := eval.ROC(valScores, valLabels)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	threshold := eval.ThresholdAtFPR(curve, *fpBudget)
	tpr := eval.TPRAtFPR(curve, *fpBudget)

	// Final pass: retrain on every known domain, keep the threshold.
	if err := ctx.Err(); err != nil {
		return err
	}
	env.label(nil)
	det, report, err = core.Train(core.DefaultConfig(), core.TrainInput{
		Graph: env.graph, Activity: env.activity, Abuse: env.abuse,
	})
	if err != nil {
		return err
	}
	det.SetThreshold(threshold)

	f, err := os.Create(*model)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.SaveDetector(f, det); err != nil {
		return err
	}
	fmt.Printf("trained on %d benign + %d malware domains in %v\n",
		report.TrainBenign, report.TrainMalware, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("threshold %.4f calibrated for <=%.2f%% FPs (validation TPR %.1f%%)\n",
		threshold, *fpBudget*100, tpr*100)
	fmt.Printf("detector saved to %s\n", *model)
	return nil
}

// ---- classify ----

func cmdClassify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	data := fs.String("data", "data", "dataset directory")
	day := fs.Int("day", 183, "observation day to classify")
	model := fs.String("model", "detector.bin", "trained model path")
	top := fs.Int("top", 20, "print at most this many detections")
	showMachines := fs.Bool("machines", true, "print infected machines")
	reportPath := fs.String("report", "", "write a JSON evidence report to this path")
	psl := fs.String("psl", "", "optional public-suffix-list file (publicsuffix.org format)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*model)
	if err != nil {
		return err
	}
	det, err := core.LoadDetector(f)
	f.Close()
	if err != nil {
		return err
	}

	env, err := loadDayEnv(*data, *day, *psl)
	if err != nil {
		return err
	}
	env.label(nil)

	if err := ctx.Err(); err != nil {
		return err
	}
	t0 := time.Now()
	dets, report, err := det.Classify(core.ClassifyInput{
		Graph: env.graph, Activity: env.activity, Abuse: env.abuse,
	})
	if err != nil {
		return err
	}
	detected := det.Detected(dets)
	fmt.Printf("classified %d unknown domains in %v; %d above threshold %.4f\n",
		report.Classified, time.Since(t0).Round(time.Millisecond), len(detected), det.Threshold())
	for i, d := range detected {
		if i >= *top {
			fmt.Printf("  ... and %d more\n", len(detected)-*top)
			break
		}
		fmt.Printf("  %.4f  %s\n", d.Score, d.Domain)
	}
	if *showMachines {
		machines := core.InfectedMachines(report.PrunedGraph(), detected)
		fmt.Printf("machines querying detected domains: %d\n", len(machines))
		for i, m := range machines {
			if i >= *top {
				fmt.Printf("  ... and %d more\n", len(machines)-*top)
				break
			}
			fmt.Printf("  %s\n", m)
		}
	}
	if *reportPath != "" {
		ex, err := features.NewExtractor(report.PrunedGraph(), env.activity, env.abuse, 14)
		if err != nil {
			return err
		}
		rep := reportpkg.Build(report.PrunedGraph(), ex, det, dets, report.Classified)
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("evidence report written to %s (%d detections)\n", *reportPath, len(rep.Detections))
	}
	return nil
}

// ---- track ----

// cmdTrack runs a trained detector over several observation days and
// folds the detections into the multi-day tracker: what is new, what
// recurs (block with confidence), what went dormant (the operators moved
// on).
func cmdTrack(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("track", flag.ContinueOnError)
	data := fs.String("data", "data", "dataset directory")
	model := fs.String("model", "detector.bin", "trained model path")
	days := fs.String("days", "", "comma-separated observation days (required)")
	minDays := fs.Int("min-days", 2, "persistence cutoff for the final summary")
	psl := fs.String("psl", "", "optional public-suffix-list file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dayList, err := parseDays(*days)
	if err != nil {
		return fmt.Errorf("track: %w", err)
	}

	f, err := os.Open(*model)
	if err != nil {
		return err
	}
	det, err := core.LoadDetector(f)
	f.Close()
	if err != nil {
		return err
	}

	track := tracker.New()
	for _, day := range dayList {
		if err := ctx.Err(); err != nil {
			return err
		}
		env, err := loadDayEnv(*data, day, *psl)
		if err != nil {
			return err
		}
		env.label(nil)
		dets, report, err := det.Classify(core.ClassifyInput{
			Graph: env.graph, Activity: env.activity, Abuse: env.abuse,
		})
		if err != nil {
			return err
		}
		detected := det.Detected(dets)
		diff := track.Observe(day, detected, report.PrunedGraph())
		fmt.Printf("day %d: %d detections — %d new, %d recurring, %d dormant\n",
			day, len(detected), len(diff.New), len(diff.Recurring), len(diff.Dormant))
		for _, d := range diff.New {
			fmt.Printf("  NEW %s\n", d)
		}
	}

	persistent := track.Persistent(*minDays)
	fmt.Printf("\ndetected on %d+ days (%d domains):\n", *minDays, len(persistent))
	for _, e := range persistent {
		fmt.Printf("  %-30s days %d-%d (%dx), peak %.3f, %d machines\n",
			e.Domain, e.FirstDetected, e.LastDetected, e.DaysDetected, e.PeakScore, len(e.Machines))
	}
	return nil
}

// ---- evaluate ----

// cmdEvaluate runs the paper's rigorous cross-day protocol on file data:
// known domains present on both days are held out (their ground truth
// hidden from labeling, feature measurement, and training), the detector
// is trained on the first day and scored on the second, and the ROC is
// printed.
func cmdEvaluate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	data := fs.String("data", "data", "dataset directory")
	trainDay := fs.Int("train-day", 170, "training observation day")
	testDay := fs.Int("test-day", 183, "test observation day")
	fraction := fs.Float64("fraction", 0.6, "fraction of known domains held out for testing")
	psl := fs.String("psl", "", "optional public-suffix-list file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	trainEnv, err := loadDayEnv(*data, *trainDay, *psl)
	if err != nil {
		return err
	}
	testEnv, err := loadDayEnv(*data, *testDay, *psl)
	if err != nil {
		return err
	}

	// Held-out test set: known domains observed on both days.
	rng := rand.New(rand.NewSource(11))
	hidden := map[string]struct{}{}
	var testDomains []string
	var testLabels []int
	for d := int32(0); d < int32(testEnv.graph.NumDomains()); d++ {
		name := testEnv.graph.DomainName(d)
		if _, inTrain := trainEnv.graph.DomainIndex(name); !inTrain {
			continue
		}
		isMal := testEnv.blacklist.Contains(name, *trainDay)
		isBen := testEnv.whitelist.ContainsE2LD(testEnv.graph.DomainE2LD(d))
		if (!isMal && !isBen) || rng.Float64() > *fraction {
			continue
		}
		hidden[name] = struct{}{}
		testDomains = append(testDomains, name)
		if isMal {
			testLabels = append(testLabels, 1)
		} else {
			testLabels = append(testLabels, 0)
		}
	}
	if len(testDomains) == 0 {
		return fmt.Errorf("no known domains shared between days %d and %d", *trainDay, *testDay)
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	trainEnv.label(hidden)
	det, trainReport, err := core.Train(core.DefaultConfig(), core.TrainInput{
		Graph: trainEnv.graph, Activity: trainEnv.activity, Abuse: trainEnv.abuse, Exclude: hidden,
	})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	testEnv.label(hidden)
	dets, _, err := det.Classify(core.ClassifyInput{
		Graph: testEnv.graph, Activity: testEnv.activity, Abuse: testEnv.abuse, Domains: testDomains,
	})
	if err != nil {
		return err
	}

	byDomain := map[string]float64{}
	for _, d := range dets {
		byDomain[d.Domain] = d.Score
	}
	scores := make([]float64, len(testDomains))
	malware := 0
	for i, name := range testDomains {
		scores[i] = byDomain[name]
		malware += testLabels[i]
	}
	curve, err := eval.ROC(scores, testLabels)
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	auc, _ := eval.AUC(curve)

	fmt.Printf("train day %d -> test day %d\n", *trainDay, *testDay)
	fmt.Printf("training set: %d benign + %d malware domains\n",
		trainReport.TrainBenign, trainReport.TrainMalware)
	fmt.Printf("held-out test set: %d malware, %d benign\n", malware, len(testDomains)-malware)
	fmt.Printf("AUC %.4f\n", auc)
	for _, budget := range []float64{0.001, 0.005, 0.01} {
		threshold := eval.ThresholdAtFPR(curve, budget)
		c := eval.Confuse(scores, testLabels, threshold)
		fmt.Printf("  FP budget %.2f%%: threshold %.4f -> TPR %5.1f%%, precision %5.1f%% (TP %d FP %d FN %d)\n",
			budget*100, threshold, c.Recall()*100, c.Precision()*100, c.TP, c.FP, c.FN)
	}
	return nil
}

// ---- shared plumbing ----

type dayEnv struct {
	day       int
	graph     *graph.Graph
	activity  *activity.Log
	abuse     *pdns.AbuseIndex
	blacklist *intel.Blacklist
	whitelist *intel.Whitelist
	suffixes  *dnsutil.SuffixList
}

func (e *dayEnv) label(hidden map[string]struct{}) {
	e.graph.ApplyLabels(graph.LabelSources{
		Blacklist: e.blacklist, Whitelist: e.whitelist, AsOf: e.day, Hidden: hidden,
	})
}

func loadDayEnv(dir string, day int, pslPath string) (*dayEnv, error) {
	env := &dayEnv{day: day, suffixes: dnsutil.DefaultSuffixList()}
	if pslPath != "" {
		if err := readFile(pslPath, func(f *os.File) error {
			sl, err := dnsutil.ParseSuffixList(bufio.NewReader(f))
			if err != nil {
				return err
			}
			env.suffixes = sl
			return nil
		}); err != nil {
			return nil, err
		}
	}

	if err := readFile(filepath.Join(dir, "blacklist.tsv"), func(f *os.File) (err error) {
		env.blacklist, err = logio.ReadBlacklist(f)
		return err
	}); err != nil {
		return nil, err
	}
	if err := readFile(filepath.Join(dir, "whitelist.txt"), func(f *os.File) (err error) {
		env.whitelist, err = logio.ReadWhitelist(f)
		return err
	}); err != nil {
		return nil, err
	}

	db := pdns.NewDB()
	if err := readFile(filepath.Join(dir, "pdns.tsv"), func(f *os.File) error {
		return logio.ReadPDNS(bufio.NewReader(f), db)
	}); err != nil {
		return nil, err
	}

	b := graph.NewBuilder("cli", day, env.suffixes)
	if err := readFile(filepath.Join(dir, fmt.Sprintf("queries-%d.tsv", day)), func(f *os.File) error {
		return logio.ReadQueryLog(bufio.NewReader(f), func(machine, domain string) {
			b.AddQuery(machine, domain)
		})
	}); err != nil {
		return nil, err
	}
	if err := readFile(filepath.Join(dir, fmt.Sprintf("resolutions-%d.tsv", day)), func(f *os.File) error {
		return logio.ReadResolutions(bufio.NewReader(f), b.SetDomainIPs)
	}); err != nil {
		return nil, err
	}
	env.graph = b.Build()

	// Prefer the per-day activity digest when present; fall back to the
	// (coarser) passive-DNS-derived activity.
	actPath := filepath.Join(dir, "activity.tsv")
	if _, statErr := os.Stat(actPath); statErr == nil {
		env.activity = activity.NewLog()
		if err := readFile(actPath, func(f *os.File) error {
			return logio.ReadActivity(bufio.NewReader(f), env.activity, env.suffixes)
		}); err != nil {
			return nil, err
		}
	} else {
		env.activity = activity.FromDB(db, env.suffixes, day-13, day)
	}
	env.abuse = pdns.BuildAbuseIndex(db, day-150, day-1, func(d string) pdns.Verdict {
		if env.blacklist.Contains(d, day) {
			return pdns.VerdictMalware
		}
		if env.whitelist.ContainsDomain(d, env.suffixes) {
			return pdns.VerdictBenign
		}
		return pdns.VerdictUnknown
	})
	return env, nil
}

func parseDays(spec string) ([]int, error) {
	var out []int
	for _, p := range splitComma(spec) {
		var d int
		if _, err := fmt.Sscanf(p, "%d", &d); err != nil {
			return nil, fmt.Errorf("bad day %q", p)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no days given")
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func writeFile(path string, fn func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fn(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readFile(path string, fn func(f *os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

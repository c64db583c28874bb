// Dailyops: the deployment loop an ISP would actually run.
//
// Each day: retrain on yesterday's labeled graph, classify today's
// unknown domains at a fixed false-positive budget, fold the detections
// into a multi-day tracker, and emit an evidence report. Across days the
// tracker separates new infrastructure from recurring (high-confidence)
// control domains and flags dormant ones — the operational view of the
// network agility Segugio is built to chase.
//
//	go run ./examples/dailyops
package main

import (
	"fmt"
	"log"
	"os"

	"segugio/internal/core"
	"segugio/internal/eval"
	"segugio/internal/experiments"
	"segugio/internal/features"
	"segugio/internal/report"
	"segugio/internal/tracker"
)

func main() {
	log.SetFlags(0)

	universe, err := experiments.NewUniverse(
		experiments.TestUniverseParams(37), experiments.UniverseOptions{})
	if err != nil {
		log.Fatal(err)
	}
	isp := universe.Network(experiments.TestPopulation("OPS", 8))
	track := tracker.New()

	var lastReport *report.Report
	for day := 170; day <= 173; day++ {
		// Calibrate threshold and train on the day's known domains.
		val, err := experiments.RunCross(isp, day, isp, day,
			experiments.CrossOptions{TestFraction: 0.3, Seed: int64(day)})
		if err != nil {
			log.Fatal(err)
		}
		detector := val.Detector
		detector.SetThreshold(eval.ThresholdAtFPR(val.Curve, 0.001))

		// Classify everything still unknown today.
		dd := isp.Day(day)
		g := isp.Labeled(dd, isp.Commercial, nil)
		abuse := isp.Abuse(day, isp.Commercial)
		detections, classifyReport, err := detector.Classify(core.ClassifyInput{
			Graph: g, Activity: dd.Activity, Abuse: abuse,
		})
		if err != nil {
			log.Fatal(err)
		}
		detected := detector.Detected(detections)
		diff := track.Observe(day, detected, classifyReport.PrunedGraph())
		fmt.Printf("day %d: %d detections — %d new, %d recurring, %d went dormant\n",
			day, len(detected), len(diff.New), len(diff.Recurring), len(diff.Dormant))

		// The last day's evidence report, for the vetting queue.
		ex, err := features.NewExtractor(classifyReport.PrunedGraph(), dd.Activity, abuse, 14)
		if err != nil {
			log.Fatal(err)
		}
		lastReport = report.Build(classifyReport.PrunedGraph(), ex, detector,
			detections, classifyReport.Classified)
	}

	fmt.Printf("\ntracked control domains after 4 days: %d\n", track.Len())
	persistent := track.Persistent(2)
	fmt.Printf("detected on 2+ days (block with confidence): %d\n", len(persistent))
	for i, e := range persistent {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(persistent)-5)
			break
		}
		fmt.Printf("  %-26s first day %d, %d days, peak %.3f, %d machines\n",
			e.Domain, e.FirstDetected, e.DaysDetected, e.PeakScore, len(e.Machines))
	}

	fmt.Println("\nlast day's evidence report (text form):")
	short := *lastReport
	if len(short.Detections) > 3 {
		short.Detections = short.Detections[:3]
	}
	if err := short.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

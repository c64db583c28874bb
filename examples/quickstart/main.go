// Quickstart: the smallest end-to-end Segugio run.
//
// It builds a small synthetic ISP, trains the behavior-based classifier on
// one day of DNS traffic, classifies the next day's unknown domains, and
// prints the discovered malware-control domains together with the infected
// machines that query them.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"segugio/internal/core"
	"segugio/internal/eval"
	"segugio/internal/experiments"
)

func main() {
	log.SetFlags(0)

	// A small synthetic ISP: the domain universe (benign sites, malware
	// families with rotating control domains, passive-DNS history) plus a
	// machine population querying it.
	universe, err := experiments.NewUniverse(
		experiments.TestUniverseParams(7), experiments.UniverseOptions{})
	if err != nil {
		log.Fatal(err)
	}
	isp := universe.Network(experiments.TestPopulation("QUICK", 1))

	trainDay, deployDay := 170, 178

	// Train on one day of traffic. Labels come from the commercial C&C
	// blacklist and the consistently-popular whitelist; the pipeline
	// prunes the graph (rules R1-R4), measures the 11 features of every
	// known domain with its own label hidden, and fits a random forest.
	dd := isp.Day(trainDay)
	g := isp.Labeled(dd, isp.Commercial, nil)
	detector, report, err := core.Train(core.DefaultConfig(), core.TrainInput{
		Graph:    g,
		Activity: dd.Activity,
		Abuse:    isp.Abuse(trainDay, isp.Commercial),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d benign + %d malware domains (graph pruned %d -> %d domains)\n",
		report.TrainBenign, report.TrainMalware,
		report.Prune.DomainsBefore, report.Prune.DomainsAfter)

	// Calibrate the detection threshold for a 0.1% false-positive budget
	// using a same-day validation run (hide a third of the known domains
	// and measure the ROC on them).
	val, err := experiments.RunCross(isp, trainDay, isp, trainDay,
		experiments.CrossOptions{TestFraction: 0.33, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	detector.SetThreshold(eval.ThresholdAtFPR(val.Curve, 0.001))
	fmt.Printf("threshold %.3f for <=0.1%% FPs\n", detector.Threshold())

	// Deploy on a later day: classify everything still unknown.
	dd2 := isp.Day(deployDay)
	g2 := isp.Labeled(dd2, isp.Commercial, nil)
	detections, classifyReport, err := detector.Classify(core.ClassifyInput{
		Graph:    g2,
		Activity: dd2.Activity,
		Abuse:    isp.Abuse(deployDay, isp.Commercial),
	})
	if err != nil {
		log.Fatal(err)
	}
	detected := detector.Detected(detections)
	fmt.Printf("\nclassified %d unknown domains on day %d; %d detections:\n",
		classifyReport.Classified, deployDay, len(detected))
	for i, d := range detected {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(detected)-10)
			break
		}
		truth := "?"
		if id, ok := universe.Cat.IDByName(d.Domain); ok {
			if fam, isMalware := universe.Cat.TrueFamily(id); isMalware {
				truth = "true C&C of " + fam
			} else {
				truth = "false positive"
			}
		}
		fmt.Printf("  %.3f  %-26s (%s)\n", d.Score, d.Domain, truth)
	}

	machines := core.InfectedMachines(classifyReport.PrunedGraph(), detected)
	fmt.Printf("\n%d machines query the detected domains (first 5):\n", len(machines))
	for i, m := range machines {
		if i == 5 {
			break
		}
		fmt.Printf("  %s\n", m)
	}
}

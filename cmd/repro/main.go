// Command repro regenerates every table and figure of the paper's
// evaluation (§7), plus this repository's extension experiments, and prints
// the measured rows/series next to the numbers the paper reports. Run all
// experiments, or one:
//
//	go run ./cmd/repro                       # everything
//	go run ./cmd/repro -exp fig8             # one experiment
//	go run ./cmd/repro -exp table4 -dur 5s   # longer steady window
//	go run ./cmd/repro -h                    # the experiment list
//
// The experiments are the entries of cluster.Experiments; this command
// only looks one up, prints its report, writes its BENCH_*.json artifact
// and checks its acceptance bars. -dur is each experiment's one size: the
// steady-state window per measured point, and whatever else the experiment
// derives from it. Every selected experiment runs; exit status 1 means one
// or more of them, or a bar, failed — each is named at the end — and 2 an
// unknown experiment name.
//
// The scale experiment runs entries of the internal/scale scenario matrix
// at full acceptance size (>= 10000 open-loop sessions); select one with
// -scenario, or leave it empty for the steady + partition pair:
//
//	go run ./cmd/repro -exp scale -scenario herd
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, or one of those listed below")
	dur := flag.Duration("dur", 2*time.Second, "experiment size: the steady-state measurement window per point")
	scenario := flag.String("scenario", "", "scale scenario to run (steady, diurnal, hotkey, herd, partition; empty = steady + partition)")
	flag.Usage = func() {
		flag.PrintDefaults()
		for _, e := range cluster.Experiments {
			fmt.Fprintf(flag.CommandLine.Output(), "  -exp %-20s %-9s %s\n", e.Name, e.Kind, e.Title)
		}
	}
	flag.Parse()

	todo := cluster.Experiments
	if *exp != "all" {
		e, ok := cluster.LookupExperiment(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; run with -h for the list\n", *exp)
			os.Exit(2)
		}
		todo = []cluster.Experiment{e}
	}
	var failed []string
	for _, e := range todo {
		if e.Name == "scale" && *scenario != "" {
			e = cluster.ScaleExperiment(*scenario)
		}
		if err := run(e, *dur); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			failed = append(failed, e.Name)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d of %d experiments failed: %s\n", len(failed), len(todo), strings.Join(failed, ", "))
		os.Exit(1)
	}
}

// run prints one experiment's header and report, writes its artifact, and
// returns the first thing that failed: the run itself, the write, or a bar.
func run(e cluster.Experiment, dur time.Duration) error {
	fmt.Printf("\n=== %s [%s] ===\npaper: %s\n\n", e.Title, e.Kind, e.Claim)
	rep, err := e.Run(dur)
	fmt.Print(rep.Text())
	if err != nil {
		return err
	}
	if e.Artifact != "" {
		if err := cluster.WriteBench(e.ArtifactPath(), e.Artifact, e.Kind, rep.Data); err != nil {
			return err
		}
		fmt.Println("wrote", e.ArtifactPath())
	}
	for _, b := range rep.Bars {
		if err := b.Err(); err != nil {
			return err
		}
	}
	return nil
}

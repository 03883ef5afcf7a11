// Command acdcsim runs the paper-reproduction experiments.
//
// Usage:
//
//	acdcsim -list              list experiment IDs
//	acdcsim fig8 table1 …      run selected experiments
//	acdcsim -all               run the whole registry
//	acdcsim -long fig14        closer-to-paper durations (~10×)
//	acdcsim -seed 7 fig1       change the simulation seed
//	acdcsim -parallel 0 -all   run experiments on one worker per CPU
//	acdcsim -report -all > results.md    the Markdown report (EXPERIMENTS.md's source)
//	acdcsim -report -metrics -all        ...with each experiment's telemetry blocks
//	acdcsim -faults loss fig8  inject a named fault profile (chaos run)
//	acdcsim -restart warm@1ms fig8       restart every vSwitch mid-run
//	acdcsim -fabric link-down@5ms,link=left>right,for=1ms fig8
//	acdcsim -audit fig8        check datapath invariants (-audit-panic aborts)
//
// -parallel N runs the selected experiments over N workers (0 = one per
// CPU; the default 1 is the sequential path). Each experiment owns its own
// simulator, so results and their printed order are identical to a
// sequential run — only wall time changes.
//
// `acdcsim -faults list` (and -restart, -fabric) prints each
// option's syntax. A run under any of them opens with a header naming it,
// so its output is self-describing and replayable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"acdc/internal/experiments"
	"acdc/internal/topo"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	all := flag.Bool("all", false, "run every experiment")
	long := flag.Bool("long", false, "run closer-to-paper durations (~10x)")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 1, "experiment workers (0 = one per CPU, 1 = sequential)")
	report := flag.Bool("report", false, "print the Markdown report instead of plain text")
	telemetry := flag.Bool("metrics", false, "with -report, include each experiment's datapath-metrics telemetry")
	envFlags := topo.BindEnv(flag.CommandLine)
	flag.Parse()

	env, help, err := envFlags.Env()
	if err != nil {
		fmt.Fprintf(os.Stderr, "acdcsim: %v\n", err)
		os.Exit(2)
	}
	if help != "" {
		fmt.Print(help)
		return
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := flag.Args()
	if *all {
		ids = nil
		for _, e := range experiments.Registry {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: acdcsim [-long] [-seed N] [-parallel N] [-report [-metrics]] [-faults P] [-restart R] [-fabric D] [-audit] (-list | -all | <experiment-id>...)")
		fmt.Fprintln(os.Stderr, "run `acdcsim -list` for available experiments")
		os.Exit(2)
	}

	cfg := experiments.RunConfig{Long: *long, Seed: *seed, Env: env}
	if *report {
		fmt.Print(experiments.ReportHeader(cfg))
	} else {
		for _, line := range env.Describe(*seed) {
			fmt.Printf("%s on %s\n\n", line, strings.Join(ids, " "))
		}
	}
	exit := 0
	var jobs []experiments.Job
	for _, id := range ids {
		e := experiments.ByID(id)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			exit = 1
			continue
		}
		jobs = append(jobs, experiments.Job{Exp: *e, Cfg: cfg})
	}
	// Wrap each run with per-experiment timing; results stream out strictly
	// in job order, so parallel output matches sequential output (modulo the
	// wall-time lines, which also vary run to run sequentially).
	durs := make([]time.Duration, len(jobs))
	for i := range jobs {
		i, run := i, jobs[i].Exp.Run
		jobs[i].Exp.Run = func(c experiments.RunConfig) *experiments.Result {
			start := time.Now()
			res := run(c)
			durs[i] = time.Since(start)
			return res
		}
	}
	experiments.Sweep(jobs, *parallel, func(i int, res *experiments.Result) {
		if *report {
			fmt.Print(res.Markdown(durs[i], *telemetry))
		} else {
			fmt.Printf("%s(wall time %.1fs)\n\n", res.String(), durs[i].Seconds())
		}
	})
	os.Exit(exit)
}

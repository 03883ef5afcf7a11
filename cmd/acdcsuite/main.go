// Command acdcsuite runs the declarative scenario catalog and gates the
// results against checked-in baselines — the repo's regression trajectory.
//
// Usage:
//
//	acdcsuite                          run the whole catalog, diff baselines
//	acdcsuite baseline lossy-link      run selected scenarios only
//	acdcsuite -scenario list           list the catalog (also: acdcsuite list)
//	acdcsuite -smoke                   reduced CI shape (small topologies, 1 trial)
//	acdcsuite -bless                   record current results as the new baselines
//	acdcsuite -config specs.json       run scenarios from a JSON spec file
//	acdcsuite -baseline FILE           baseline file (default SUITE_baselines.json)
//	acdcsuite -seed 1 -parallel 0      base seed / worker count
//
// A spec's Faults, Restart and Fabric fields take the syntax that
// `acdcsim -faults list` (and -restart, -fabric) prints.
//
// Exit status: 0 when every expected-invariant check passes and every metric
// is inside its baseline tolerance band; 1 on any check failure, baseline
// regression, missing baseline entry, or (full-catalog runs) stale baseline
// entry; 2 on usage errors. The simulator is deterministic, so rerunning an
// unchanged tree reproduces the blessed values exactly — any diff is a real
// behaviour change.
//
// Scenario runs are isolated per-simulator and spread over -parallel workers
// via experiments.Sweep; output and results are byte-identical to a
// sequential run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"acdc/internal/scenario"
	"acdc/internal/soak"
)

func main() {
	scenarioFlag := flag.String("scenario", "", "comma-separated scenario names (`list` to enumerate; default: whole catalog)")
	config := flag.String("config", "", "JSON spec file to run instead of the built-in catalog")
	baseline := flag.String("baseline", "SUITE_baselines.json", "baseline file to diff against / bless into")
	bless := flag.Bool("bless", false, "record this run's results as the new baselines instead of diffing")
	smoke := flag.Bool("smoke", false, "reduced CI shape: smoke topology overrides, 1 trial, separate baseline mode")
	noBaseline := flag.Bool("no-baseline", false, "skip the baseline diff (checks still run)")
	seed := flag.Int64("seed", 1, "base simulation seed (trial t runs at seed+t)")
	parallel := flag.Int("parallel", 0, "scenario workers (0 = one per CPU, 1 = sequential)")
	quiet := flag.Bool("quiet", false, "suppress progress and per-scenario metric lines (failures still print)")
	soakMode := flag.Bool("soak", false, "run the service-mode soak (leak/drift gates) instead of the scenario catalog")
	soakDuration := flag.Duration("soak-duration", 60*time.Second, "wall-clock soak length (with -soak)")
	flag.Parse()

	if *soakMode {
		runSoak(*soakDuration, *seed, *quiet)
		return
	}

	names := flag.Args()
	if *scenarioFlag != "" {
		for _, n := range strings.Split(*scenarioFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	// `list`/`help` is a catalog query only when it is the entire selection.
	// Mixed with real names it used to short-circuit here, so a typo like
	// `-scenario baselin,list` printed the catalog and exited 0 instead of
	// failing; now the unknown name reaches CatalogByName and errors with a
	// near-miss suggestion.
	if len(names) == 1 && (names[0] == "list" || names[0] == "help") {
		fmt.Print(scenario.CatalogHelp())
		return
	}

	var specs []scenario.Spec
	var err error
	if *config != "" {
		if len(names) > 0 {
			fail(2, "acdcsuite: -config and scenario names are mutually exclusive")
		}
		specs, err = scenario.LoadSpecs(*config)
	} else {
		specs, err = scenario.CatalogByName(names...)
	}
	if err != nil {
		fail(2, "acdcsuite: %v", err)
	}
	// Stale-baseline detection only makes sense when the run covers the whole
	// gated set: the built-in catalog with no selection.
	complete := *config == "" && len(names) == 0

	cfg := scenario.SuiteConfig{Seed: *seed, Smoke: *smoke, Workers: *parallel}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	fmt.Printf("acdcsuite: %d scenario(s), mode %s, seed %d\n", len(specs), cfg.Mode(), *seed)
	start := time.Now()
	results, err := scenario.Run(specs, cfg)
	if err != nil {
		fail(2, "acdcsuite: %v", err)
	}

	exit := 0
	for _, r := range results {
		if !*quiet {
			fmt.Printf("\n== %s — %s\n", r.Spec.Name, r.Spec.Title)
		}
		for _, sr := range r.Schemes {
			if !*quiet {
				fmt.Printf("   %-6s %s\n", sr.Scheme, summarize(sr.Metrics))
			}
			for _, f := range sr.CheckFailures {
				// The failure text already names the scheme.
				fmt.Printf("   CHECK FAILED %s: %s\n", r.Spec.Name, f)
				exit = 1
			}
		}
	}
	fmt.Printf("\n(wall time %.1fs)\n", time.Since(start).Seconds())

	switch {
	case *noBaseline:
	case *bless:
		f, lerr := scenario.LoadBaselines(*baseline)
		if lerr != nil {
			f = &scenario.BaselineFile{Comment: "regenerate: go run ./cmd/acdcsuite -bless (and -smoke -bless); see SCENARIOS.md"}
		}
		f.Bless(cfg.Mode(), *seed, results)
		if err := scenario.SaveBaselines(*baseline, f); err != nil {
			fail(2, "acdcsuite: %v", err)
		}
		fmt.Printf("blessed %d scenario(s) into %s (mode %s)\n", len(results), *baseline, cfg.Mode())
	default:
		f, lerr := scenario.LoadBaselines(*baseline)
		if lerr != nil {
			fail(1, "acdcsuite: %v (run with -bless to create baselines)", lerr)
		}
		regs := f.Diff(cfg.Mode(), *seed, results, complete)
		if len(regs) > 0 {
			fmt.Printf("\nBASELINE REGRESSIONS (%d, mode %s, %s):\n", len(regs), cfg.Mode(), *baseline)
			for _, reg := range regs {
				fmt.Printf("  %s\n", reg.String())
			}
			fmt.Println("\nif this change is intended, re-bless: go run ./cmd/acdcsuite -bless (see SCENARIOS.md)")
			exit = 1
		} else {
			fmt.Printf("baselines clean (mode %s, %s)\n", cfg.Mode(), *baseline)
		}
	}
	os.Exit(exit)
}

// runSoak executes the service-mode soak (internal/soak): churn + flash-crowd
// workloads under a hostile control plane, gated on leaks, drift, goroutine
// growth, and audit violations. Exit 1 when any gate trips.
func runSoak(duration time.Duration, seed int64, quiet bool) {
	cfg := soak.Config{Duration: duration, Seed: seed}
	if !quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	fmt.Printf("acdcsuite: soak %v, seed %d\n", duration, seed)
	r := soak.Run(cfg)
	fmt.Print(r.String())
	if r.Failed() {
		os.Exit(1)
	}
}

// summarize renders the headline metrics on one stable-order line.
func summarize(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		// The ctr_ fleet counters are baselined but too noisy for the console
		// line; audit_violations is the exception worth surfacing.
		if !strings.HasPrefix(k, "ctr_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, m[k]))
	}
	return strings.Join(parts, " ")
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

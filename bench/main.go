// Command bench is the repository's benchmark: four workloads, each measured
// end to end with the profiler off and then, in a second pass over the
// identical simulation, attributed layer by layer. See README.md.
//
//	go run . -workload incast47 -seed 1 -seconds 10 -trace 0   one timed pass, end-to-end metrics
//	go run . -workload incast47 -seed 1 -seconds 10 -trace 1   timed + traced pass + probes, per-layer metrics
//	go run .                                                    every workload, both passes, the probes, the ledger
//	go run . -selfcheck                                         the timed set twice; differences against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// timedSetups is how many times a timed pass sets the workload up; setup_s is
// their median.
const timedSetups = 3

type spanFile struct {
	Workload string `json:"workload"`
	Pass     string `json:"pass"`
	Spans    []span `json:"spans"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload only and end with the result line (default: all of them, both passes, probes and ledger)")
	seed := fs.Int64("seed", 1, "seed of the workload generators; reaches nothing else")
	seconds := fs.Float64("seconds", 10, "length of a measurement window: 20 slices of fixed work per second")
	trace := fs.Int("trace", 0, "with -workload: 0 = a timed pass and the end-to-end metrics, 1 = timed and traced pass, probes, and the per-layer metrics")
	selfcheck := fs.Bool("selfcheck", false, "run the timed set twice and compare every end-to-end metric with its bound")
	spansPath := fs.String("spans", "", "write the harness's own spans (set-up, slices, calibrations, drain) to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	cfg := passConfig{seed: *seed, seconds: *seconds, scale: 1, setups: timedSetups}

	var errs []string
	var spans []spanFile
	keep := func(rs ...*passResult) {
		for _, r := range rs {
			pass := "timed"
			if r.traced {
				pass = "traced"
			}
			spans = append(spans, spanFile{r.workload, pass, r.spans})
		}
	}
	switch {
	case *selfcheck:
		errs = selfCheck(stdout, cfg)
	case *name == "":
		probes := runProbes()
		for _, w := range workloads {
			lr := traceWorkload(w, cfg, probes)
			printPass(stdout, lr.timed)
			printLayers(stdout, lr)
			keep(lr.timed, lr.traced)
			errs = append(errs, lr.errs...)
		}
		printProbes(stdout, probes)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		var err error
		if *trace == 0 {
			r := runPass(w, cfg)
			printPass(stdout, r)
			keep(r)
			errs = r.errs
			printErrs(stdout, errs)
			err = writeResultLine(stdout, r, len(errs) == 0, endToEnd, endToEndValues(r))
		} else {
			cfg.setups = 1
			probes := runProbes()
			lr := traceWorkload(w, cfg, probes)
			printLayers(stdout, lr)
			printProbes(stdout, probes)
			keep(lr.timed, lr.traced)
			errs = lr.errs
			printErrs(stdout, errs)
			err = writeResultLine(stdout, lr.timed, len(errs) == 0, perLayer(), lr.values())
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(errs) > 0 {
		if *name == "" {
			printErrs(stdout, errs)
		}
		return 1
	}
	return 0
}

func writeSpans(path string, spans []spanFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfCheck measures the timed set twice on the same code and prints every
// end-to-end metric's relative difference beside its bound. Simulated-time
// results, counts and the digest must agree exactly.
func selfCheck(w io.Writer, cfg passConfig) []string {
	var errs []string
	for _, wl := range workloads {
		a, b := runPass(wl, cfg), runPass(wl, cfg)
		errs = append(append(errs, a.errs...), b.errs...)
		fmt.Fprintf(w, "%s\n", wl.name)
		va, vb := endToEndValues(a), endToEndValues(b)
		for _, d := range endToEnd {
			diff := math.Abs(vb[d.name]-va[d.name]) / va[d.name]
			verdict := "ok"
			if diff > d.bound {
				verdict = "EXCEEDS"
				errs = append(errs, fmt.Sprintf("%s: %s differs by %.2f%% between two runs of the same code, bound %.0f%%",
					wl.name, d.name, 100*diff, 100*d.bound))
			}
			fmt.Fprintf(w, "  %-18s %14.6g %14.6g %s  diff %6.2f%%  bound %3.0f%%  %s\n",
				d.name, va[d.name], vb[d.name], d.unit, 100*diff, 100*d.bound, verdict)
		}
		exact := "identical"
		if a.out != b.out || a.win != b.win || a.pendingMax != b.pendingMax {
			exact = "DIFFER"
			errs = append(errs, fmt.Sprintf("%s: simulated results, counts or digest differ between two runs of one seed", wl.name))
		}
		fmt.Fprintf(w, "  digest %016x %016x; simulated results and counts %s\n", a.out.digest, b.out.digest, exact)
	}
	return errs
}

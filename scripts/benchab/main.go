// Command benchab compares two sets of bench/ result lines, a base's and a
// change's, run as alternating pairs (scripts/bench_ab.sh runs them). For
// every end-to-end metric of BENCHMARK.json it prints each side's median and
// quartiles, the ratio of the medians, the pairs the change wins and a
// verdict:
//
//	ok      the change's median is inside the metric's bound of the base's
//	worse   the change's median is worse than the base's by more than the bound
//	spread  a side's quartile spread exceeds the bound: too noisy to tell
//	gain    (the claimed metric) wins ≥ 9 of 10 pairs and the medians differ
//	        by more than the base's quartile spread
//	no gain (the claimed metric) otherwise
//
// It exits 1 on a worse, spread or no-gain verdict, an incorrect run, or a
// larger share of failed operations on the change's side, and 2 when a result
// line lacks an end-to-end metric. It reads BENCHMARK.json from the working
// directory.
//
// Each line is one run, {"slowdown": S, "raw": R, "result": <the run's result
// line>}, S being its calibration slowdown and R its packet rate before
// normalisation, either null (scripts/bench_ab.sh writes these). It prints
// each side's slowdown range, the raw rates' medians and quartiles under
// pkts_per_s_norm and, beside a spread verdict, every run's value with its
// slowdown, so that runs made while the machine was in another speed state
// can be told from a change's effect. Slowdowns and raw rates change no
// verdict.
//
//	go run ./scripts/benchab [-claim METRIC] base.jsonl change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
)

type metric struct {
	Name, Unit, Better string
	Bound              float64
}

type result struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]struct{ Value float64 }
	slowdown          float64 // the run's calibration slowdown; NaN if unknown
	raw               float64 // the run's packet rate before normalisation; NaN if unknown
}

func main() {
	claim := flag.String("claim", "", "the metric the change claims to improve")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchab [-claim METRIC] base.jsonl change.jsonl")
		os.Exit(2)
	}
	var bj struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bj)
	}
	base, err2 := readResults(flag.Arg(0))
	change, err3 := readResults(flag.Arg(1))
	for _, e := range []error{err, err2, err3} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "benchab:", e)
			os.Exit(2)
		}
	}
	n := min(len(base), len(change))
	if n == 0 {
		fmt.Fprintln(os.Stderr, "benchab: no pairs")
		os.Exit(2)
	}
	base, change = base[:n], change[:n]
	for _, m := range bj.EndToEnd {
		for i := range n {
			for side, r := range [2]result{base[i], change[i]} {
				if _, ok := r.Metrics[m.Name]; !ok {
					fmt.Fprintf(os.Stderr, "benchab: %s run %d has no %s\n", [2]string{"base", "change"}[side], i+1, m.Name)
					os.Exit(2)
				}
			}
		}
	}

	bad := false
	failShare := func(rs []result) (share float64, correct bool) {
		var att, fail int64
		correct = true
		for _, r := range rs {
			att, fail, correct = att+r.Attempted, fail+r.Failed, correct && r.Correct
		}
		return float64(fail) / float64(max(att, 1)), correct
	}
	bs, bok := failShare(base)
	cs, cok := failShare(change)
	fmt.Printf("%d pairs; failed operations: base %.4g, change %.4g; correct: base %v, change %v\n", n, bs, cs, bok, cok)
	fmt.Printf("slowdown (machine N× slower than the reference): base %s, change %s\n\n", slowdownRange(base), slowdownRange(change))
	bad = bad || !cok || cs > bs

	fmt.Printf("| metric | base median [q1, q3] | change median [q1, q3] | ratio | wins | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|\n")
	claimed := false
	var spreads []string
	for _, m := range bj.EndToEnd {
		bv, cv := values(base, m.Name), values(change, m.Name)
		bq, cq := quartiles(bv), quartiles(cv)
		better := func(c, b float64) bool {
			if m.Better == "lower" {
				return c < b
			}
			return c > b
		}
		wins := 0
		for i := range bv {
			if better(cv[i], bv[i]) {
				wins++
			}
		}
		ratio := cq[1] / bq[1]
		verdict := "ok"
		switch worse := ratio - 1; {
		case m.Better == "higher" && -worse > m.Bound, m.Better == "lower" && worse > m.Bound:
			verdict = "worse"
		case bq[2]-bq[0] > m.Bound*math.Abs(bq[1]), cq[2]-cq[0] > m.Bound*math.Abs(cq[1]):
			verdict = "spread"
		}
		if m.Name == *claim {
			claimed = true
			if verdict == "ok" {
				verdict = "no gain"
				if 10*wins >= 9*n && better(cq[1], bq[1]) && math.Abs(cq[1]-bq[1]) > bq[2]-bq[0] {
					verdict = "gain"
				}
			}
		}
		bad = bad || verdict == "worse" || verdict == "spread" || verdict == "no gain"
		fmt.Printf("| %s (%s) | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %.4f | %d/%d | %g | %s |\n",
			m.Name, m.Unit, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], ratio, wins, n, m.Bound, verdict)
		if m.Name == "pkts_per_s_norm" {
			printRaw(base, change)
		}
		if verdict == "spread" {
			spreads = append(spreads, fmt.Sprintf("spread on %s, run by run (value @ slowdown):\n  base   %s\n  change %s",
				m.Name, perRun(bv, base), perRun(cv, change)))
		}
	}
	for _, s := range spreads {
		fmt.Printf("\n%s\n", s)
	}
	if *claim != "" && !claimed {
		fmt.Fprintf(os.Stderr, "benchab: -claim %q is not an end-to-end metric\n", *claim)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

// readResults reads one line per run.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var run struct {
			Slowdown, Raw *float64
			Result        json.RawMessage
		}
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if run.Result == nil {
			return nil, fmt.Errorf("%s: line %d has no result", path, len(rs)+1)
		}
		r := result{slowdown: math.NaN(), raw: math.NaN()}
		if err := json.Unmarshal(run.Result, &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if run.Slowdown != nil {
			r.slowdown = *run.Slowdown
		}
		if run.Raw != nil {
			r.raw = *run.Raw
		}
		rs = append(rs, r)
	}
	return rs, sc.Err()
}

// slowdownRange renders the smallest and largest calibration slowdown of rs.
func slowdownRange(rs []result) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rs {
		if !math.IsNaN(r.slowdown) {
			lo, hi = min(lo, r.slowdown), max(hi, r.slowdown)
		}
	}
	if lo > hi {
		return "unknown"
	}
	return fmt.Sprintf("%.2f×–%.2f×", lo, hi)
}

// printRaw writes the table row of the raw packet rates, the rate before
// normalisation by the calibration slowdown, when every run printed one: on a
// machine that swings between speed states it tells a change from the swing.
func printRaw(base, change []result) {
	raws := func(rs []result) []float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			if math.IsNaN(r.raw) {
				return nil
			}
			vs[i] = r.raw
		}
		return vs
	}
	bv, cv := raws(base), raws(change)
	if bv == nil || cv == nil {
		return
	}
	wins := 0
	for i := range bv {
		if cv[i] > bv[i] {
			wins++
		}
	}
	bq, cq := quartiles(bv), quartiles(cv)
	fmt.Printf("| raw rate, not normalised (1/s) | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %.4f | %d/%d | – | information only |\n",
		bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], cq[1]/bq[1], wins, len(bv))
}

// perRun renders each run's value of a metric with the run's slowdown.
func perRun(vs []float64, rs []result) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteString(", ")
		}
		if fmt.Fprintf(&b, "%.6g @ ", v); math.IsNaN(rs[i].slowdown) {
			b.WriteString("?")
		} else {
			fmt.Fprintf(&b, "%.2f×", rs[i].slowdown)
		}
	}
	return b.String()
}

func values(rs []result, name string) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.Metrics[name].Value
	}
	return vs
}

// quartiles returns the first quartile, the median and the third quartile of
// vs, interpolating between order statistics.
func quartiles(vs []float64) [3]float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

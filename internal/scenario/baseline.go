package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// BaselineFile is the checked-in regression gate: expected metric values per
// mode ("full", "smoke") → scenario → scheme → metric. The simulator is
// deterministic given the seed, so a rerun of an unchanged tree reproduces
// every value exactly; the tolerance bands exist to absorb *intended* code
// evolution, not run-to-run noise.
type BaselineFile struct {
	// Comment documents how to regenerate ("acdcsuite -bless ...").
	Comment string `json:"comment,omitempty"`
	// Seed is the base seed the baselines were blessed with; runs gate only
	// against baselines blessed at the same seed.
	Seed  int64                         `json:"seed"`
	Modes map[string]map[string]SchemeB `json:"modes"`
}

// SchemeB maps scheme key → metric → blessed value for one scenario.
type SchemeB map[string]map[string]float64

// LoadBaselines reads a baseline file strictly, as ParseSpecs reads a
// config: a mistyped key or trailing data is an error, not a gate that
// silently checks less.
func LoadBaselines(path string) (*BaselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var f BaselineFile
	if err := decodeStrict(data, &f); err != nil {
		return nil, fmt.Errorf("scenario: bad baseline file %s: %v", path, err)
	}
	return &f, nil
}

// SaveBaselines writes the file with stable formatting (sorted keys, so
// re-blessing an unchanged tree produces a byte-identical file).
func SaveBaselines(path string, f *BaselineFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Bless records the results as mode's new baselines, replacing that mode's
// previous entries and leaving other modes untouched.
func (f *BaselineFile) Bless(mode string, seed int64, results []*Result) {
	if f.Modes == nil {
		f.Modes = map[string]map[string]SchemeB{}
	}
	f.Seed = seed
	m := map[string]SchemeB{}
	for _, r := range results {
		sb := SchemeB{}
		for _, sr := range r.Schemes {
			vals := make(map[string]float64, len(sr.Metrics))
			for k, v := range sr.Metrics {
				// Round to 6 significant-ish decimals so the JSON stays diffable.
				vals[k] = math.Round(v*1e6) / 1e6
			}
			sb[sr.Scheme] = vals
		}
		m[r.Spec.Name] = sb
	}
	f.Modes[mode] = m
}

// Tolerance returns the (absolute, relative) band for a metric: a measured
// value passes when |got-base| ≤ max(abs, rel·|base|). Bands are matched on
// the metric name, widest for tail percentiles (legitimately the most
// volatile under code evolution) and exact for invariant counts.
func Tolerance(metric string) (abs, rel float64) {
	switch {
	case metric == "audit_violations":
		return 0, 0 // invariants are exact: any violation is a regression
	case metric == "fairness":
		return 0.05, 0
	case metric == "drop_rate":
		return 0.003, 0.5
	case metric == "ce_fraction":
		return 0.1, 0.3
	case metric == "tput_avg_gbps":
		return 0.05, 0.10
	case strings.Contains(metric, "_p999_"):
		return 0.05, 0.60
	case strings.Contains(metric, "_p99_"):
		return 0.05, 0.50
	case strings.Contains(metric, "_p50_"):
		return 0.02, 0.25
	case strings.HasPrefix(metric, "ctr_"):
		return 2, 0.35
	case strings.HasPrefix(metric, "fabric_"):
		return 2, 0.35
	case strings.HasSuffix(metric, "_n") || metric == "flash_waves",
		strings.HasPrefix(metric, "churn_"):
		return 2, 0.25
	default:
		return 0.01, 0.25
	}
}

// Regression is one baseline violation.
type Regression struct {
	Scenario, Scheme, Metric string
	// Kind is "drift" (outside the band), "missing" (no baseline entry —
	// bless to add it), or "stale" (baseline entry with no measurement).
	Kind      string
	Base, Got float64
}

func (r Regression) String() string {
	where := r.Scenario + "/" + r.Scheme + "/" + r.Metric
	switch r.Kind {
	case "missing":
		return fmt.Sprintf("%s: no baseline for measured value %g (re-bless to add)", where, r.Got)
	case "stale":
		return fmt.Sprintf("%s: baseline %g has no measured counterpart (re-bless to drop)", where, r.Base)
	}
	abs, rel := Tolerance(r.Metric)
	return fmt.Sprintf("%s: got %g, baseline %g (band ±max(%g, %g%%))",
		where, r.Got, r.Base, abs, rel*100)
}

// Diff gates results against mode's baselines. complete marks a run of the
// entire catalog: only then are unmatched baseline entries reported as stale
// (a partial run legitimately skips scenarios). A nonzero return is the CI
// failure condition.
func (f *BaselineFile) Diff(mode string, seed int64, results []*Result, complete bool) []Regression {
	var regs []Regression
	base := f.Modes[mode]
	if base == nil {
		base = map[string]SchemeB{}
	}
	if f.Seed != seed {
		regs = append(regs, Regression{Scenario: "(suite)", Scheme: "-", Metric: "seed",
			Kind: "drift", Base: float64(f.Seed), Got: float64(seed)})
	}
	seen := map[string]bool{}
	for _, r := range results {
		for _, sr := range r.Schemes {
			bm := base[r.Spec.Name][sr.Scheme]
			for _, k := range sortedMetricKeys(sr.Metrics) {
				got := sr.Metrics[k]
				seen[r.Spec.Name+"\x00"+sr.Scheme+"\x00"+k] = true
				bv, ok := bm[k]
				if !ok {
					regs = append(regs, Regression{r.Spec.Name, sr.Scheme, k, "missing", 0, got})
					continue
				}
				abs, rel := Tolerance(k)
				if diff := math.Abs(got - bv); diff > math.Max(abs, rel*math.Abs(bv)) {
					regs = append(regs, Regression{r.Spec.Name, sr.Scheme, k, "drift", bv, got})
				}
			}
		}
	}
	if complete {
		for scn, sb := range base {
			for scheme, bm := range sb {
				for k, bv := range bm {
					if !seen[scn+"\x00"+scheme+"\x00"+k] {
						regs = append(regs, Regression{scn, scheme, k, "stale", bv, 0})
					}
				}
			}
		}
		sort.Slice(regs, func(i, j int) bool {
			a, b := regs[i], regs[j]
			if a.Scenario != b.Scenario {
				return a.Scenario < b.Scenario
			}
			if a.Scheme != b.Scheme {
				return a.Scheme < b.Scheme
			}
			return a.Metric < b.Metric
		})
	}
	return regs
}

func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

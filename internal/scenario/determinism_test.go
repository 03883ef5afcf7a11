package scenario

import (
	"fmt"
	"strings"
	"testing"

	"acdc/internal/experiments"
)

// TestDeterminismMatrix runs the smoke catalog and two quick figures at two
// seeds, each on one worker and on two. The output must not depend on the
// worker count, and must depend on the seed: a result that ignores its seed
// would pass the first half by never being random at all.
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the smoke catalog and two figures four times")
	}
	figs := []experiments.Experiment{*experiments.ByID("fig1"), *experiments.ByID("fig14")}
	type run struct {
		seed    int64
		workers int
	}
	suite, report := map[run]string{}, map[run]string{}
	for _, seed := range []int64{1, 2} {
		for _, workers := range []int{1, 2} {
			var b strings.Builder
			results, err := Run(Catalog(), SuiteConfig{Seed: seed, Smoke: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				for _, sr := range r.Schemes {
					fmt.Fprintf(&b, "%s/%s %v %v %v\n%s", r.Spec.Name, sr.Scheme, sr.Metrics, sr.PerTrial,
						sr.CheckFailures, sr.Telemetry.Text())
				}
			}
			suite[run{seed, workers}] = b.String()
			b.Reset()
			jobs := make([]experiments.Job, len(figs))
			for i, e := range figs {
				jobs[i] = experiments.Job{Exp: e, Cfg: experiments.RunConfig{Seed: seed}}
			}
			for _, r := range experiments.Sweep(jobs, workers, nil) {
				b.WriteString(r.String())
			}
			report[run{seed, workers}] = b.String()
		}
	}
	for what, out := range map[string]map[run]string{"smoke catalog": suite, "figures": report} {
		for _, seed := range []int64{1, 2} {
			if out[run{seed, 1}] != out[run{seed, 2}] {
				t.Errorf("%s, seed %d: output on two workers differs from output on one", what, seed)
			}
		}
		if out[run{1, 1}] == out[run{2, 1}] {
			t.Errorf("%s: seeds 1 and 2 give identical output, so the seed reaches nothing", what)
		}
	}
}

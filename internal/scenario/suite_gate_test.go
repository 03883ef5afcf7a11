package scenario

import "testing"

// TestSmokeSuiteMatchesCheckedInBaselines is the in-tree copy of the CI gate:
// run the whole catalog in smoke mode at the blessed seed and diff against
// the repo's committed baselines. The simulator is deterministic, so this
// passes byte-identically on an unchanged tree; if it fails, either fix the
// regression or — for an intended change — re-bless:
//
//	go run ./cmd/acdcsuite -bless && go run ./cmd/acdcsuite -smoke -bless
func TestSmokeSuiteMatchesCheckedInBaselines(t *testing.T) {
	f, err := LoadBaselines("../../SUITE_baselines.json")
	if err != nil {
		t.Fatalf("checked-in baselines unreadable: %v", err)
	}
	results, err := Run(Catalog(), SuiteConfig{Seed: f.Seed, Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for _, sr := range r.Schemes {
			for _, fail := range sr.CheckFailures {
				t.Errorf("%s: invariant check failed: %s", r.Spec.Name, fail)
			}
		}
	}
	for _, reg := range f.Diff("smoke", f.Seed, results, true) {
		t.Errorf("baseline regression: %s", reg.String())
	}
}

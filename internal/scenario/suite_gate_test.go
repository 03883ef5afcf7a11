package scenario

import (
	"testing"

	"acdc/internal/core"
)

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

// TestBackendSmokeMatrix runs the catalog in smoke mode under every
// enforcement backend. The universal gate is the packet-level auditor:
// pace and adaptive-k change *how* the virtual window is imposed, not
// *whether* the datapath stays conservation- and ordering-clean, so a
// single audit violation under any backend is a real bug, not tuning.
// Spec invariant checks are additionally enforced for dctcp-cut (exact
// parity with the default-backend gate); the catalog's numeric bounds are
// calibrated for that mechanism, and pace's probe-driven rate estimator
// needs full-length runs to converge — at full duration all three backends
// clear every check (`acdcsuite -backend <b> -no-baseline` exits 0), which
// is the comparison EXPERIMENTS.md reports. Baselines are NOT diffed here:
// headline numbers legitimately differ across mechanisms.
func TestBackendSmokeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("3-backend catalog sweep; run without -short (CI backend-matrix job)")
	}
	for _, b := range core.BackendNames() {
		b := b
		t.Run(b, func(t *testing.T) {
			specs := Catalog()
			for i := range specs {
				specs[i].Backend = b
			}
			results, err := Run(specs, SuiteConfig{Seed: 1, Smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				for _, sr := range r.Schemes {
					for _, fail := range sr.CheckFailures {
						if b == core.DefaultBackend {
							t.Errorf("%s/%s [%s]: invariant check failed: %s",
								r.Spec.Name, sr.Scheme, b, fail)
						} else {
							t.Logf("%s/%s [%s]: calibrated check differs in smoke mode: %s",
								r.Spec.Name, sr.Scheme, b, fail)
						}
					}
					if av := sr.Metrics["audit_violations"]; av != 0 {
						t.Errorf("%s/%s [%s]: %v audit violations",
							r.Spec.Name, sr.Scheme, b, av)
					}
				}
			}
		})
	}
}

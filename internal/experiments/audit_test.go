package experiments

import (
	"testing"

	"acdc/internal/audit"
	"acdc/internal/topo"
)

// TestAuditCleanAndByteIdentical reruns representative experiments (the
// dumbbell, the incast sweep, and the all-ports-congested hot port — the
// three that exercise RWND enforcement, ECN plumbing, policing, and deep
// window cuts hardest) with the invariant auditor attached in panic mode.
// Two properties are asserted at once:
//
//   - zero violations: the full datapath honors every audited invariant on
//     the paper's own workloads (any violation panics at the offending
//     packet, failing the test with the rule name and flow key);
//   - the observer effect is nil: the rendered report is byte-identical to
//     the audit-off run, i.e. attaching the auditor changes no simulation
//     outcome and (violation-free) registers no metrics.
func TestAuditCleanAndByteIdentical(t *testing.T) {
	for _, id := range []string{"fig8", "fig18", "fig20"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e := ByID(id)
			if e == nil {
				t.Fatalf("experiment %q not registered", id)
			}
			plain := e.Run(RunConfig{Seed: 1}).String()
			audited := e.Run(RunConfig{Seed: 1, Env: topo.Env{Audit: &audit.Config{Panic: true}}}).String()
			if audited != plain {
				t.Fatalf("%s: audited report differs from plain report\n--- plain ---\n%s\n--- audited ---\n%s",
					id, plain, audited)
			}
		})
	}
}

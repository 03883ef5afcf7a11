package scenario

import (
	"strings"
	"testing"

	"acdc/internal/core"
	"acdc/internal/sim"
	"acdc/internal/topo"
)

func ip(v int) *int { return &v }

// policySpec returns a valid single-policy spec the validation tests mutate.
func policySpec() Spec {
	s := tinySpec()
	s.Policies = []PolicySpec{{Beta: fp(0.5), RwndClampBytes: 1 << 20}}
	return s
}

// TestPolicySpecValidation is the regression test for hostile scenario-spec
// policies: a config file carrying β outside [0,1], a negative clamp, an
// unknown VCC, or an out-of-range host matcher must be rejected at load —
// the same contract the daemon's live policy stream enforces.
func TestPolicySpecValidation(t *testing.T) {
	if err := policySpec().Validate(); err != nil {
		t.Fatalf("valid policy spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*PolicySpec)
		want string
	}{
		{"hostile beta", func(p *PolicySpec) { p.Beta = fp(3) }, "beta"},
		{"negative beta", func(p *PolicySpec) { p.Beta = fp(-0.25) }, "beta"},
		{"negative clamp", func(p *PolicySpec) { p.RwndClampBytes = -1 }, "clamp"},
		{"unknown vcc", func(p *PolicySpec) { p.VCC = "cubic++" }, "vcc"},
		{"src host range", func(p *PolicySpec) { p.SrcHost = ip(99) }, "src_host"},
		{"dst host range", func(p *PolicySpec) { p.DstHost = ip(-1) }, "dst_host"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := policySpec()
			tc.mut(&s.Policies[0])
			err := s.Validate()
			if err == nil {
				t.Fatal("hostile policy spec validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCompileFlowPolicyMatchesAndSanitizes exercises the compiled callback
// directly: host matchers select by the flow's data direction, first match
// wins, and the returned policy has been through the Sanitized choke point —
// a hostile β that skipped Validate comes out clamped, never raw.
func TestCompileFlowPolicyMatchesAndSanitizes(t *testing.T) {
	net := topo.Star(3, topo.Options{})
	pol := compileFlowPolicy([]PolicySpec{
		{SrcHost: ip(0), Beta: fp(3)}, // hostile: bypassed Validate on purpose
		{DstHost: ip(2), Disable: true},
	}, net)
	if pol == nil {
		t.Fatal("compileFlowPolicy returned nil for a non-empty policy list")
	}

	from0 := pol(core.FlowKey{Src: net.Addr(0), Dst: net.Addr(1)})
	if from0.Beta != 1 {
		t.Errorf("hostile β=3 reached the enforcement math as %v (want clamped to 1)", from0.Beta)
	}
	if to2 := pol(core.FlowKey{Src: net.Addr(1), Dst: net.Addr(2)}); !to2.Disable {
		t.Errorf("dst matcher missed: got %+v", to2)
	}
	// First match wins: src 0 → dst 2 hits the src rule, not the disable.
	if both := pol(core.FlowKey{Src: net.Addr(0), Dst: net.Addr(2)}); both.Disable {
		t.Errorf("policy order not respected: got %+v", both)
	}
	if def := pol(core.FlowKey{Src: net.Addr(1), Dst: net.Addr(0)}); def != core.DefaultPolicy() {
		t.Errorf("unmatched flow got %+v, want the default policy", def)
	}

	if compileFlowPolicy(nil, net) != nil {
		t.Error("empty policy list should leave the vSwitch default untouched")
	}
}

// TestPolicySpecDisablesEnforcement runs the same trial with and without a
// blanket Disable policy: with it, AC/DC must never rewrite a window; without
// it, enforcement is active. The hostile-β variant (clamped to plain DCTCP by
// the choke point) must leave the auditor clean.
func TestPolicySpecDisablesEnforcement(t *testing.T) {
	base := Spec{
		Name: "policy-e2e",
		Topo: TopoSpec{Kind: "dumbbell", Hosts: 2},
		Workloads: []WorkloadSpec{
			{Kind: "bulk-pairs"},
		},
		Schemes: []string{"acdc"},
		Audit:   true,
		Warmup:  Duration(2 * sim.Millisecond),
		Measure: Duration(8 * sim.Millisecond),
	}.withDefaults()
	env, err := base.env()
	if err != nil {
		t.Fatal(err)
	}

	m, _ := runTrial(base, env, "acdc", 1)
	if m["ctr_rwnd_rewrites_total"] == 0 {
		t.Fatal("baseline trial never rewrote a window; the comparison is vacuous")
	}

	off := base
	off.Policies = []PolicySpec{{Disable: true}}
	m, _ = runTrial(off, env, "acdc", 1)
	if got := m["ctr_rwnd_rewrites_total"]; got != 0 {
		t.Errorf("Disable policy still rewrote %v windows", got)
	}

	hostile := base
	hostile.Policies = []PolicySpec{{Beta: fp(3)}} // bypasses Validate
	m, _ = runTrial(hostile, env, "acdc", 1)
	if got := m["audit_violations"]; got != 0 {
		t.Errorf("hostile β through the spec path tripped %v audit violations", got)
	}
	if m["ctr_rwnd_rewrites_total"] == 0 {
		t.Error("clamped hostile policy should still enforce (β=1)")
	}
}

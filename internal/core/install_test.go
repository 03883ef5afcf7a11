package core

import (
	"math"
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

func TestInstallPolicyRejectsMalformed(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	k := FlowKey{Src: host.Addr, Dst: packet.MakeAddr(10, 0, 0, 2), SPort: 1, DPort: 2}
	cases := []struct {
		name string
		p    Policy
	}{
		{"beta above one", Policy{Beta: 3}},
		{"beta negative", Policy{Beta: -0.5}},
		{"beta NaN", Policy{Beta: math.NaN()}},
		{"negative clamp", Policy{Beta: 1, RwndClampBytes: -1}},
		{"unknown vcc", Policy{Beta: 1, VCC: "bbr"}},
	}
	for _, tc := range cases {
		if _, err := v.InstallPolicy(k, tc.p); err == nil {
			t.Errorf("%s: InstallPolicy accepted %+v", tc.name, tc.p)
		}
	}
	if _, ok := v.PolicyOverride(k); ok {
		t.Fatal("a rejected policy left an override behind")
	}
	if got := v.Stats().PolicyInstalls; got != 0 {
		t.Fatalf("policy_installs_total = %d after only rejections", got)
	}
}

func TestInstallPolicyAppliesToNewAndLiveFlows(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	kNew := FlowKey{Src: host.Addr, Dst: peer, SPort: 10, DPort: 20}
	kLive := FlowKey{Src: host.Addr, Dst: peer, SPort: 11, DPort: 21}

	// A flow that exists before the install must pick up the policy in place.
	egress(v, dataPkt(host.Addr, peer, kLive.SPort, kLive.DPort, 1, 100))
	if v.Table.Get(kLive) == nil {
		t.Fatal("live flow not tracked")
	}
	want := Policy{Beta: 0.25, RwndClampBytes: 4096}
	for _, k := range []FlowKey{kNew, kLive} {
		got, err := v.InstallPolicy(k, want)
		if err != nil {
			t.Fatalf("InstallPolicy(%v): %v", k, err)
		}
		if got != want {
			t.Fatalf("installed %+v, want %+v", got, want)
		}
	}
	if f := v.Table.Get(kLive); *f.Policy != want {
		t.Fatalf("live flow policy = %+v, want %+v", f.Policy, want)
	}
	// A flow created after the install resolves the override at setup.
	egress(v, dataPkt(host.Addr, peer, kNew.SPort, kNew.DPort, 1, 100))
	if f := v.Table.Get(kNew); *f.Policy != want {
		t.Fatalf("new flow policy = %+v, want %+v", f.Policy, want)
	}
	if got := v.Stats().PolicyInstalls; got != 2 {
		t.Fatalf("policy_installs_total = %d, want 2", got)
	}
}

func TestInstallPolicySwapsVirtualCC(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig()) // default vcc: dctcp
	peer := packet.MakeAddr(10, 0, 0, 2)
	k := FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 2}
	egress(v, dataPkt(host.Addr, peer, k.SPort, k.DPort, 1, 100))
	f := v.Table.Get(k)
	if f.vcc.String() != "dctcp" {
		t.Fatalf("default vcc = %q", f.vcc.String())
	}
	if _, err := v.InstallPolicy(k, Policy{Beta: 1, VCC: "reno"}); err != nil {
		t.Fatal(err)
	}
	if f.vcc.String() != "reno" {
		t.Fatalf("vcc after install = %q, want reno", f.vcc.String())
	}
}

func TestClearPolicyRevertsToConfiguredChain(t *testing.T) {
	cfg := DefaultConfig()
	base := Policy{Beta: 0.75}
	cfg.FlowPolicy = func(FlowKey) Policy { return base }
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	k := FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 2}
	egress(v, dataPkt(host.Addr, peer, k.SPort, k.DPort, 1, 100))

	if _, err := v.InstallPolicy(k, Policy{Beta: 0.1}); err != nil {
		t.Fatal(err)
	}
	if f := v.Table.Get(k); f.Policy.Beta != 0.1 {
		t.Fatalf("override not applied: β=%v", f.Policy.Beta)
	}
	if !v.ClearPolicy(k) {
		t.Fatal("ClearPolicy found no override")
	}
	if v.ClearPolicy(k) {
		t.Fatal("second ClearPolicy reported an override")
	}
	if f := v.Table.Get(k); *f.Policy != base {
		t.Fatalf("flow policy after clear = %+v, want FlowPolicy's %+v", f.Policy, base)
	}
	if _, ok := v.PolicyOverride(k); ok {
		t.Fatal("override survived ClearPolicy")
	}
}

// TestInstallPolicyConcurrentWithDatapath is the update-interleaving
// regression: installs and clears land between the packets of the flow they
// address, the way the daemon's command queue delivers them — as events on the
// simulation goroutine — and each one is live on the flow at once.
func TestInstallPolicyConcurrentWithDatapath(t *testing.T) {
	v, host, s := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	k := FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 2}

	const packets = 2000
	const installs = 500
	seq := uint32(1)
	var tick func()
	n := 0
	tick = func() {
		egress(v, dataPkt(host.Addr, peer, k.SPort, k.DPort, seq, 100))
		seq += 100
		ingress(v, ackPkt(peer, host.Addr, k.DPort, k.SPort, seq, 65535))
		if n++; n < packets {
			s.ScheduleFunc(100, tick)
		}
	}
	s.ScheduleFunc(0, tick)

	// One install every 397 ns, staggered against the packets (every 100 ns).
	betas := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := 0; i < installs; i++ {
		want := Policy{Beta: betas[i%len(betas)]}
		clearAfter := i%3 == 0
		s.ScheduleFunc(sim.Duration(50+397*i), func() {
			if _, err := v.InstallPolicy(k, want); err != nil {
				t.Errorf("InstallPolicy: %v", err)
			}
			if f := v.Table.Get(k); f != nil && *f.Policy != want {
				t.Errorf("flow holds %+v right after installing %+v", *f.Policy, want)
			}
			if clearAfter {
				v.ClearPolicy(k)
			}
		})
	}
	s.RunAll()

	if got := v.Table.Get(k); got == nil {
		t.Fatal("flow lost during concurrent installs")
	}
	if v.Stats().PolicyInstalls != installs {
		t.Fatalf("policy_installs_total = %d, want %d", v.Stats().PolicyInstalls, installs)
	}
}

// TestPolicyOverridesSnapshotIsCopy pins that the admin listing cannot be
// used to mutate the live override table.
func TestPolicyOverridesSnapshotIsCopy(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	k := FlowKey{Src: host.Addr, Dst: packet.MakeAddr(10, 0, 0, 2), SPort: 1, DPort: 2}
	if _, err := v.InstallPolicy(k, Policy{Beta: 0.5}); err != nil {
		t.Fatal(err)
	}
	m := v.PolicyOverrides()
	m[k] = Policy{Beta: 0} // mutate the copy
	if p, _ := v.PolicyOverride(k); p.Beta != 0.5 {
		t.Fatalf("live override changed through the listing copy: β=%v", p.Beta)
	}
}

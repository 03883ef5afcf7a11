package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"acdc/internal/packet"
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
	if f.law().Name() != "dctcp" {
		t.Fatalf("default vcc = %q", f.law().Name())
	}
	if _, err := v.InstallPolicy(k, Policy{Beta: 1, VCC: "reno"}); err != nil {
		t.Fatal(err)
	}
	if f.law().Name() != "reno" {
		t.Fatalf("vcc after install = %q, want reno", f.law().Name())
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

// TestInstallPolicyConcurrentWithDatapath is the update-race regression: a
// controller goroutine streams installs while the simulation goroutine pushes
// packets through the flow. Run with -race.
func TestInstallPolicyConcurrentWithDatapath(t *testing.T) {
	v, host, s := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	k := FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 2}

	const minPackets = 2000
	const installs = 500
	var ctrlDone atomic.Bool
	seq := uint32(1)
	var tick func()
	n := 0
	tick = func() {
		egress(v, dataPkt(host.Addr, peer, k.SPort, k.DPort, seq, 100))
		seq += 100
		ingress(v, ackPkt(peer, host.Addr, k.DPort, k.SPort, seq, 65535))
		if n++; n < minPackets || !ctrlDone.Load() {
			s.ScheduleFunc(100, tick)
		}
	}
	s.ScheduleFunc(0, tick)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ctrlDone.Store(true)
		betas := []float64{0, 0.25, 0.5, 0.75, 1}
		for i := 0; i < installs; i++ {
			if _, err := v.InstallPolicy(k, Policy{Beta: betas[i%len(betas)]}); err != nil {
				t.Errorf("InstallPolicy: %v", err)
				return
			}
			if i%3 == 0 {
				v.ClearPolicy(k)
			}
		}
	}()
	s.RunAll()
	wg.Wait()

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

// TestInstallPolicyNeverLandsOnRecycledRecord: applyToLive probes the table,
// then locks the record it found; in between the GC can remove that record and
// the datapath recycle it into another flow. A controller goroutine streams
// installs for one key while the simulation goroutine keeps closing, sweeping
// and reopening that connection and others: only the addressed flow may ever
// hold the installed β. Run with -race.
func TestInstallPolicyNeverLandsOnRecycledRecord(t *testing.T) {
	b := newRecycleBench(t, DefaultConfig())
	const target, beta = 100, 0.125
	want := Policy{Beta: beta}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.v.InstallPolicy(b.key(target), want); err != nil {
				t.Errorf("InstallPolicy: %v", err)
				return
			}
		}
	}()

	reused := 0
	for round := 0; round < 3000; round++ {
		// The addressed connection lives, closes and is swept: its two
		// records are parked while an install may be holding one of them.
		b.cycle(target)
		rec := b.v.Table.Get(b.key(target))
		b.sweep()
		// Other connections take the parked records straight back.
		for sp := uint16(200); sp < 203; sp++ {
			b.out(sp, packet.TCPFields{Flags: packet.FlagSYN}, 0)
			if b.v.Table.Get(b.key(sp)) == rec {
				reused++
			}
		}
		// Checked after the creates, not between them: an install that was
		// waiting on a recycled record has had time to go through.
		for sp := uint16(200); sp < 203; sp++ {
			f := b.v.Table.Get(b.key(sp))
			f.mu.Lock()
			got := *f.Policy
			f.mu.Unlock()
			if got != DefaultPolicy() {
				t.Fatalf("round %d: flow %v holds %+v, installed for %v", round, f.Key, got, b.key(target))
			}
			b.v.Table.Delete(f.Key)
		}
	}
	close(stop)
	wg.Wait()
	if reused == 0 {
		t.Fatal("the addressed flow's record was never recycled: the race was not exercised")
	}
}

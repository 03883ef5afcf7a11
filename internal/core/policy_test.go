package core

import (
	"math"
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// TestFlowPolicySanitized is the regression test for the unvalidated live
// policy path: an operator FlowPolicy callback returning out-of-range values
// used to be installed verbatim, so β>1 made Equation (1)'s cut factor exceed
// 1 (the window GREW on congestion), a negative clamp silently disabled
// capping, and an unknown VCC name panicked flow setup. All three now route
// through the same sanitizer as snapshot restore.
func TestFlowPolicySanitized(t *testing.T) {
	cases := []struct {
		name    string
		hostile Policy
		want    Policy
	}{
		{"beta above 1", Policy{Beta: 3}, Policy{Beta: 1}},
		{"beta NaN", Policy{Beta: math.NaN()}, Policy{Beta: 1}},
		{"beta negative", Policy{Beta: -0.5}, Policy{Beta: 1}},
		{"negative clamp", Policy{Beta: 1, RwndClampBytes: -1}, Policy{Beta: 1}},
		{"unknown vcc", Policy{Beta: 1, VCC: "bogus"}, Policy{Beta: 1}},
		{"legal zero beta kept", Policy{Beta: 0, RwndClampBytes: 5000},
			Policy{Beta: 0, RwndClampBytes: 5000}},
		{"legal reno kept", Policy{Beta: 0.5, VCC: "reno"},
			Policy{Beta: 0.5, VCC: "reno"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FlowPolicy = func(FlowKey) Policy { return tc.hostile }
			v, host, _ := loneVSwitch(t, cfg)
			peer := packet.MakeAddr(10, 0, 0, 2)
			// Flow setup must not panic even for unknown VCC names.
			egress(v, dataPkt(host.Addr, peer, 100, 200, 5000, 1000))
			f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 100, DPort: 200})
			if f == nil {
				t.Fatal("no flow created")
			}
			if *f.Policy != tc.want {
				t.Fatalf("installed policy %+v, want %+v", *f.Policy, tc.want)
			}
		})
	}
}

// TestHostileBetaNeverGrowsWindowOnCut: the observable symptom of the β bug —
// a congestion cut must never increase the virtual window, whatever the
// operator callback returned.
func TestHostileBetaNeverGrowsWindowOnCut(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowPolicy = func(FlowKey) Policy { return Policy{Beta: 3} }
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 100, 200, 5000, 1000))
	f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 100, DPort: 200})
	before := f.Snapshot().CwndBytes
	v.cutWindow(f, 0, false) // α = InitAlpha = 1: an unclamped β=3 gives factor 1.5
	if after := f.Snapshot().CwndBytes; after > before {
		t.Fatalf("congestion cut grew the window: %v → %v", before, after)
	}
}

// TestWindowUpdateStormNoFakeLoss is the regression test for the dupack
// misclassification: zero-payload non-advancing ACKs whose *window field
// changed* are pure window updates, not duplicate ACKs. A storm of them used
// to fake a triple-dupack, pin α to max_alpha, and collapse the virtual
// window to the floor.
func TestWindowUpdateStormNoFakeLoss(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 100, 200, 777_000, 1000))
	f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 100, DPort: 200})
	if f == nil {
		t.Fatal("no flow created")
	}
	cwndBefore := f.Snapshot().CwndBytes
	// Four ACKs for the same (un-advanced) snd_una, each opening the receive
	// buffer a little further: a classic window-update storm.
	for i, wnd := range []uint16{1000, 2000, 3000, 4000} {
		ingress(v, ackPkt(peer, host.Addr, 200, 100, 777_000, wnd))
		dups, losses := f.DupAcks, f.LossEvents
		if dups != 0 || losses != 0 {
			t.Fatalf("after window update %d: DupAcks=%d LossEvents=%d, want 0/0",
				i+1, dups, losses)
		}
	}
	if got := f.Snapshot().CwndBytes; got != cwndBefore {
		t.Fatalf("window-update storm moved the virtual window: %v → %v",
			cwndBefore, got)
	}
}

// TestGenuineTripleDupackStillDetected: the control case — duplicate ACKs
// with an unchanged window field must still count toward the triple-dupack
// loss inference (the fix must not blind §3.1's loss detection).
func TestGenuineTripleDupackStillDetected(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 100, 200, 777_000, 1000))
	f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 100, DPort: 200})
	// First ACK establishes the window baseline; the next three are true
	// duplicates (same ack, same window) and must trip the loss inference.
	for i := 0; i < 4; i++ {
		ingress(v, ackPkt(peer, host.Addr, 200, 100, 777_000, 65535))
	}
	dups, losses := f.DupAcks, f.LossEvents
	if dups != 3 || losses != 1 {
		t.Fatalf("DupAcks=%d LossEvents=%d, want 3/1", dups, losses)
	}
}

// TestPolicyDisableHonoredByEveryBackend: a Disable flow is observation-only
// — no RWND rewrites, no policing drops — while traffic still flows. The one
// enforcement mechanism left is the DCTCP window cut, hence the one case.
func TestPolicyDisableHonoredByEveryBackend(t *testing.T) {
	t.Run("dctcp-cut", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.FlowPolicy = func(FlowKey) Policy {
			p := DefaultPolicy()
			p.Disable = true
			return p
		}
		b := newBench(t, 2, cubicGuest(), &cfg, redK(), 10e9)
		_, srvp := b.longFlow(t, 0, 1)
		b.s.RunFor(30 * sim.Millisecond)
		if srv := *srvp; srv == nil || srv.Delivered == 0 {
			t.Fatal("no data flowed for a Disable flow")
		}
		st := b.acdc[0].Stats()
		if st.RwndRewrites != 0 {
			t.Fatalf("%d RWND rewrites on a Disable flow", st.RwndRewrites)
		}
		if st.PolicingDrops != 0 {
			t.Fatalf("%d policing drops on a Disable flow", st.PolicingDrops)
		}
	})
}

// TestDctcpCutWindowLimitedOvershootGate: growth is gated on peak inflight
// pressing against — but not overshooting — the virtual window.
func TestDctcpCutWindowLimitedOvershootGate(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	f := v.newFlow(FlowKey{Src: host.Addr, Dst: packet.MakeAddr(10, 0, 0, 2), SPort: 1, DPort: 2})
	f.CwndBytes = 50_000
	if !windowLimited(f, true, 50_000) {
		t.Error("inflight at the window must count as limited")
	}
	if windowLimited(f, true, 50_000+2*int64(f.MSS)) {
		t.Error("overshooting inflight must not earn growth while enforcing")
	}
	if !windowLimited(f, false, 50_000+2*int64(f.MSS)) {
		t.Error("observation mode must not apply the overshoot gate")
	}
	if windowLimited(f, true, 1000) {
		t.Error("an idle window must not earn growth")
	}
}

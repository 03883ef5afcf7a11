package core

import (
	"strings"
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// --- name resolution: parse surfaces say no, runtime surfaces fail open ---

func TestParseBackend(t *testing.T) {
	for _, ok := range []string{"", "dctcp-cut", "pace", "adaptive-k"} {
		if got, err := ParseBackend(ok); err != nil || got != ok {
			t.Errorf("ParseBackend(%q) = %q, %v; want it accepted verbatim", ok, got, err)
		}
	}
	_, err := ParseBackend("pase")
	if err == nil || !strings.Contains(err.Error(), `did you mean "pace"`) {
		t.Errorf("ParseBackend(\"pase\") error %v, want a near-miss suggestion", err)
	}
	_, err = ParseBackend("warp-speed")
	if err == nil || !strings.Contains(err.Error(), "dctcp-cut, pace, adaptive-k") {
		t.Errorf("ParseBackend(\"warp-speed\") error %v, want the backend list", err)
	}
}

// TestUnknownBackendFailsOpen covers every runtime install path: an unknown
// backend name must never error mid-stream — each clamps to the default
// mechanism and counts backend_unknown_total.
func TestUnknownBackendFailsOpen(t *testing.T) {
	peer := packet.MakeAddr(10, 0, 0, 2)
	key := func(host *netsim.Host) FlowKey {
		return FlowKey{Src: host.Addr, Dst: peer, SPort: 100, DPort: 200}
	}

	t.Run("config", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Backend = "warp-speed"
		v, host, _ := loneVSwitch(t, cfg)
		egress(v, dataPkt(host.Addr, peer, 100, 200, 5000, 1000))
		f := v.Table.Get(key(host))
		if f == nil || f.backend().Name() != DefaultBackend {
			t.Fatalf("flow backend %v, want fail-open to %s", f, DefaultBackend)
		}
		if n := v.Stats().BackendUnknown; n != 1 {
			t.Fatalf("backend_unknown_total = %d, want 1 (counted once at attach)", n)
		}
	})

	t.Run("flow policy callback", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.FlowPolicy = func(FlowKey) Policy { return Policy{Beta: 1, Backend: "warp-speed"} }
		v, host, _ := loneVSwitch(t, cfg)
		egress(v, dataPkt(host.Addr, peer, 100, 200, 5000, 1000))
		f := v.Table.Get(key(host))
		if f == nil || f.backend().Name() != DefaultBackend {
			t.Fatalf("flow backend %v, want fail-open to %s", f, DefaultBackend)
		}
		if f.Policy.Backend != "" {
			t.Fatalf("installed Policy.Backend %q, want clamped to default", f.Policy.Backend)
		}
		if n := v.Stats().BackendUnknown; n == 0 {
			t.Fatal("backend_unknown_total = 0, want the clamp counted")
		}
	})

	t.Run("live install", func(t *testing.T) {
		v, host, _ := loneVSwitch(t, DefaultConfig())
		installed, err := v.InstallPolicy(key(host), Policy{Beta: 1, Backend: "warp-speed"})
		if err != nil {
			t.Fatalf("InstallPolicy must not reject an unknown backend mid-stream: %v", err)
		}
		if installed.Backend != "" {
			t.Fatalf("installed Policy.Backend %q, want clamped to default", installed.Backend)
		}
		if n := v.Stats().BackendUnknown; n == 0 {
			t.Fatal("backend_unknown_total = 0, want the clamp counted")
		}
	})
}

// TestPolicyBackendOverridesConfig: Policy.Backend selects the flow's
// mechanism over the vSwitch-wide default.
func TestPolicyBackendOverridesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowPolicy = func(FlowKey) Policy { return Policy{Beta: 1, Backend: "pace"} }
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 100, 200, 5000, 1000))
	f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 100, DPort: 200})
	if f == nil || f.backend().Name() != "pace" {
		t.Fatalf("flow backend %v, want pace from Policy.Backend", f)
	}
}

// syntheticFlow builds a post-handshake flow ready for processFeedbackAndAck
// (the TestSenderCCInvariantsProperty pattern), bypassing resync.
func syntheticFlow(v *VSwitch, host *netsim.Host) *Flow {
	key := FlowKey{Src: host.Addr, Dst: packet.MakeAddr(10, 0, 0, 2), SPort: 1, DPort: 2}
	f := v.newFlow(key)
	f.issValid = true
	f.SndUna, f.SndNxt = 1, 1
	f.alphaSeq = 1
	f.WScaleKnown = true
	f.PeerWScale = 7
	return f
}

func feedbackAck(f *Flow, ackTo int64, wnd uint16) *packet.Packet {
	return packet.Build(f.Key.Dst, f.Key.Src, packet.NotECT, packet.TCPFields{
		SrcPort: f.Key.DPort, DstPort: f.Key.SPort,
		Seq: 777, Ack: f.iss + uint32(ackTo),
		Flags: packet.FlagACK, Window: wnd,
	}, 0)
}

// TestPaceFbStaleFreezesRate: once the peer's feedback goes quiet for a
// virtual timeout, blind ACKs must not refresh the pacer's rate — the CE
// signal is gone, so the last safe rate holds (the sender module freezes the
// window; this pins the conversion, PR 7's freeze extended to pace).
func TestPaceFbStaleFreezesRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backend = "pace"
	v, host, s := loneVSwitch(t, cfg)
	f := syntheticFlow(v, host)
	// Move off t=0: lastFeedbackAt==0 doubles as the "never heard feedback"
	// sentinel, so feedback stamped at the epoch can never go stale.
	s.RunFor(sim.Millisecond)

	// One feedback-carrying ACK initializes the pacer and sets a rate.
	f.SndNxt += 10_000
	ack := feedbackAck(f, 5_000, 65535)
	v.processFeedbackAndAck(f, ack, ack.TCP(), packet.PACKInfo{TotalBytes: 10_000}, true)
	f.mu.Lock()
	if f.cold == nil || f.cold.bes.sh == nil {
		f.mu.Unlock()
		t.Fatal("pace backend never built its token bucket")
	}
	rate0 := f.cold.bes.sh.Rate
	// Double the virtual window: a live refresh would raise the rate.
	f.CwndBytes *= 2
	f.mu.Unlock()

	// Control: with fresh feedback, the refresh tracks the window.
	ack = feedbackAck(f, 6_000, 65535)
	v.processFeedbackAndAck(f, ack, ack.TCP(), packet.PACKInfo{TotalBytes: 10_000}, true)
	f.mu.Lock()
	rate1 := f.cold.bes.sh.Rate
	f.mu.Unlock()
	if rate1 <= rate0 {
		t.Fatalf("live refresh did not track the doubled window: %d → %d bit/s", rate0, rate1)
	}

	// Feedback goes quiet past the virtual timeout: blind ACKs arrive, the
	// window is (artificially) doubled again — the rate must hold.
	s.RunFor(3 * v.Cfg.VTimeout)
	f.mu.Lock()
	f.CwndBytes *= 2
	f.mu.Unlock()
	ack = feedbackAck(f, 7_000, 65535)
	v.processFeedbackAndAck(f, ack, ack.TCP(), packet.PACKInfo{}, false)
	f.mu.Lock()
	rate2 := f.cold.bes.sh.Rate
	f.mu.Unlock()
	if rate2 != rate1 {
		t.Fatalf("stale-feedback ACK refreshed the pacer rate: %d → %d bit/s", rate1, rate2)
	}
}

// TestPolicyDisableHonoredByEveryBackend: a Disable flow is observation-only
// under all three mechanisms — no RWND rewrites, no policing drops, no pacer
// interception — while traffic still flows.
func TestPolicyDisableHonoredByEveryBackend(t *testing.T) {
	for _, name := range BackendNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Backend = name
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
			if st.PaceQueued != 0 || st.PaceDrops != 0 {
				t.Fatalf("pacer touched a Disable flow: queued=%d dropped=%d",
					st.PaceQueued, st.PaceDrops)
			}
		})
	}
}

// --- per-backend mechanism units ---

// TestDctcpCutWindowLimitedOvershootGate: the rewrite backends gate growth on
// peak inflight pressing against — but not overshooting — the virtual window.
func TestDctcpCutWindowLimitedOvershootGate(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	f := syntheticFlow(v, host)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.CwndBytes = 50_000
	be := f.backend()
	if !be.WindowLimited(v, f, true, 50_000) {
		t.Error("inflight at the window must count as limited")
	}
	if be.WindowLimited(v, f, true, 50_000+2*int64(f.MSS)) {
		t.Error("overshooting inflight must not earn growth while enforcing")
	}
	if !be.WindowLimited(v, f, false, 50_000+2*int64(f.MSS)) {
		t.Error("observation mode must not apply the overshoot gate")
	}
	if be.WindowLimited(v, f, true, 1000) {
		t.Error("an idle window must not earn growth")
	}
}

// TestPaceWindowLimitedThrottleFlag: pace earns growth from its token bucket
// running dry, not from inflight (which the guest, not pace, bounds).
func TestPaceWindowLimitedThrottleFlag(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backend = "pace"
	v, host, _ := loneVSwitch(t, cfg)
	f := syntheticFlow(v, host)
	f.mu.Lock()
	defer f.mu.Unlock()
	bes := f.beState()
	bes.throttled = true
	if !f.backend().WindowLimited(v, f, true, 0) {
		t.Error("a throttled interval must earn growth")
	}
	if f.backend().WindowLimited(v, f, true, 0) {
		t.Error("the throttled flag must reset after one reading")
	}
}

// TestPaceRoundAnchorBounded: pace anchors α/cut rounds one virtual window
// past the ack — never at snd_nxt, where the guest's unbounded inflight
// stretches the law's once-per-window cadence by the queue depth.
func TestPaceRoundAnchorBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backend = "pace"
	v, host, _ := loneVSwitch(t, cfg)
	f := syntheticFlow(v, host)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.CwndBytes = 20_000
	f.SndUna, f.SndNxt = 100_000, 900_000 // 800 KB of guest inflight
	w := f.enforcedWindow(v.minRwnd(f))
	if got := f.backend().RoundAnchor(v, f, 100_000); got != 100_000+w {
		t.Errorf("pace anchor %d, want ack+window = %d", got, 100_000+w)
	}
	// Never beyond what was actually sent.
	f.SndNxt = 100_000 + w/2
	if got := f.backend().RoundAnchor(v, f, 100_000); got != f.SndNxt {
		t.Errorf("pace anchor %d beyond snd_nxt %d", got, f.SndNxt)
	}
	// dctcp-cut keeps the paper's anchor byte-identically.
	g := syntheticFlow(v, host)
	g.Key.DPort = 3
	g.mu.Lock()
	defer g.mu.Unlock()
	g.SndUna, g.SndNxt = 100_000, 900_000
	if got := (dctcpCutBackend{}).RoundAnchor(v, g, 100_000); got != g.SndNxt {
		t.Errorf("dctcp-cut anchor %d, want snd_nxt %d", got, g.SndNxt)
	}
}

// TestPaceLossAttributionHorizon: dupacks within a feedback horizon of a
// pacer queue-bound drop are the pacer's own doing and must not collapse the
// virtual window; fabric loss outside the horizon still must.
func TestPaceLossAttributionHorizon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backend = "pace"
	v, host, s := loneVSwitch(t, cfg)
	s.RunFor(sim.Millisecond) // move off t=0 (the "never dropped" sentinel)
	f := syntheticFlow(v, host)
	f.mu.Lock()
	defer f.mu.Unlock()
	bes := f.beState()
	bes.srtt = 100 * sim.Microsecond
	if !f.backend().LossIsFabric(v, f) {
		t.Error("with no pacer drops ever, loss must be attributed to the fabric")
	}
	bes.lastDropAt = s.Now()
	if f.backend().LossIsFabric(v, f) {
		t.Error("loss right after a pacer drop must be attributed to the pacer")
	}
	bes.lastDropAt = s.Now() - sim.Time(20*sim.Millisecond)
	if !f.backend().LossIsFabric(v, f) {
		t.Error("loss far outside the drop horizon must be attributed to the fabric")
	}
}

// TestAdaptiveKThreshold: marked bytes below K are tolerated, K halves under
// sustained load and grows back when the fabric is quiet.
func TestAdaptiveKThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backend = "adaptive-k"
	v, host, _ := loneVSwitch(t, cfg)
	f := syntheticFlow(v, host)
	f.mu.Lock()
	defer f.mu.Unlock()
	be := f.backend()
	mss := int64(f.MSS)

	if be.Congested(v, f, 10_000, uint32(mss/4)) {
		t.Error("marked bytes below K must not count as congestion")
	}
	if !be.Congested(v, f, 10_000, uint32(mss)) {
		t.Error("accumulated marked bytes at K must count as congestion")
	}
	k0 := f.cold.bes.kBytes
	// High measured load across an α-round boundary halves K...
	f.Alpha = 0.9
	f.alphaSeq++
	be.Congested(v, f, 1000, 0)
	if f.cold.bes.kBytes >= k0 {
		t.Errorf("K did not shrink under α=0.9: %d → %d", k0, f.cold.bes.kBytes)
	}
	// ...and a quiet fabric grows it back.
	low := f.cold.bes.kBytes
	f.Alpha = 0.01
	f.alphaSeq++
	be.Congested(v, f, 1000, 0)
	if f.cold.bes.kBytes <= low {
		t.Errorf("K did not recover under α=0.01: %d → %d", low, f.cold.bes.kBytes)
	}
}

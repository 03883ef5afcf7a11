package core

import (
	"slices"
	"testing"

	"acdc/internal/packet"
)

// packAck builds an ACK carrying PACK feedback (cumulative counters), the
// packet that drives the sender module's α loop and the resync machine.
func packAck(src, dst packet.Addr, sp, dp uint16, ack uint32, wnd uint16, total, marked uint32) *packet.Packet {
	opt := make([]byte, packet.PACKOptionLen)
	packet.EncodePACK(opt, packet.PACKInfo{TotalBytes: total, MarkedBytes: marked})
	return packet.Build(src, dst, packet.NotECT, packet.TCPFields{
		SrcPort: sp, DstPort: dp, Seq: 1, Ack: ack,
		Flags: packet.FlagACK, Window: wnd, Options: opt,
	}, 0)
}

// populatedVSwitch builds a vSwitch carrying richly-varied flow state: one
// handshake flow with feedback history and learned window scale, one
// mid-stream adoption on a per-flow reno policy, and one receiver-module
// flow with CE-marked byte counters.
func populatedVSwitch(t *testing.T) (*VSwitch, packet.Addr, packet.Addr) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.FlowPolicy = func(k FlowKey) Policy {
		p := DefaultPolicy()
		if k.DPort == 443 {
			p.VCC = "reno"
			p.Beta = 0.5
			p.RwndClampBytes = 123_456
		}
		return p
	}
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)

	// Flow 1: full handshake (iss=0 keeps wire seq == absolute offset), one
	// data segment, PACK feedback with marked bytes (moves α, SndUna,
	// lastTotal/lastMarked and triggers a window cut).
	egress(v, packet.Build(host.Addr, peer, packet.NotECT, packet.TCPFields{
		SrcPort: 10, DstPort: 20, Seq: 0, Flags: packet.FlagSYN, Window: 65535,
		Options: packet.BuildSynOptions(1400, 0, true),
	}, 0))
	ingress(v, packet.Build(peer, host.Addr, packet.NotECT, packet.TCPFields{
		SrcPort: 20, DstPort: 10, Seq: 5000, Ack: 1,
		Flags: packet.FlagSYN | packet.FlagACK | packet.FlagECE, Window: 65535,
		Options: packet.BuildSynOptions(1400, 2, true),
	}, 0))
	egress(v, dataPkt(host.Addr, peer, 10, 20, 1, 1400))
	ingress(v, packAck(peer, host.Addr, 20, 10, 1401, 65535, 1400, 1400))

	// Flow 2: mid-stream adoption under the reno policy (no handshake seen).
	egress(v, dataPkt(host.Addr, peer, 30, 443, 777_000, 1000))

	// Flow 3: receiver module counting CE-marked peer data.
	ingress(v, packet.Build(peer, host.Addr, packet.CE, packet.TCPFields{
		SrcPort: 50, DstPort: 60, Seq: 1, Ack: 1,
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65535,
	}, 900))

	if v.Table.Len() < 3 {
		t.Fatalf("expected ≥3 flows, have %d", v.Table.Len())
	}
	return v, host.Addr, peer
}

// records reads every non-UDP flow's checkpointed form, keyed for comparison.
func records(v *VSwitch) map[FlowKey]flowRecord {
	out := map[FlowKey]flowRecord{}
	v.Table.Range(func(f *Flow) {
		if !f.isUDP {
			out[f.Key] = f.record()
		}
	})
	return out
}

func TestSnapshotRoundTripLossless(t *testing.T) {
	// Every enforcement-affecting field must survive save → restore exactly.
	// flowRecord is the pin: record() collects the full enforcement
	// state, and equality here fails if restore drops or distorts any of it.
	a, _, _ := populatedVSwitch(t)
	want := records(a)
	snap := a.SaveSnapshot()

	b, _, _ := loneVSwitch(t, DefaultConfig())
	b.RestoreSnapshot(snap)
	got := records(b)
	if len(got) != len(want) {
		t.Fatalf("restored %d flows, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("flow %+v missing after restore", k)
		}
		if g != w {
			t.Errorf("flow %+v state drifted:\n got %+v\nwant %+v", k, g, w)
		}
	}
	st := b.Stats()
	if st.SnapshotRestores != 1 {
		t.Fatalf("restore counters: %+v", st)
	}
	if a.Stats().SnapshotSaves != 1 {
		t.Fatalf("SnapshotSaves = %d", a.Stats().SnapshotSaves)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	// Identical tables must checkpoint to identical records (sorted by key,
	// not table order), so checkpoint diffing works.
	v, _, _ := populatedVSwitch(t)
	if !slices.Equal(v.SaveSnapshot(), v.SaveSnapshot()) {
		t.Fatal("two snapshots of an unchanged table differ")
	}
}

func TestRestoreEntersResyncThenReenforces(t *testing.T) {
	// A restored sender flow must come up in conservative mode — no RWND
	// rewrite — and return to enforcement only after one clean feedback
	// round. This is the tentpole invariant: the snapshot is always at least
	// one outage behind the wire.
	a, ahost, peer := populatedVSwitch(t)
	snap := a.SaveSnapshot()
	b, _, _ := loneVSwitch(t, DefaultConfig())
	b.RestoreSnapshot(snap)
	k := FlowKey{Src: ahost, Dst: peer, SPort: 10, DPort: 20}
	f := b.Table.Get(k)
	if f == nil {
		t.Fatal("handshake flow missing after restore")
	}
	if !f.Resyncing() {
		t.Fatal("restored flow not in resync")
	}

	// Plain ACK during resync: enforcement suspended, neither rewrite nor
	// noop counted, guest window untouched.
	p := ackPkt(peer, ahost, 20, 10, 1401, 65535)
	ingress(b, p)
	if w := p.TCP().Window(); w != 65535 {
		t.Fatalf("resyncing flow rewrote RWND to %d", w)
	}
	if st := b.Stats(); st.RwndRewrites != 0 || st.RwndUnchanged != 0 {
		t.Fatalf("enforcement counters moved during resync: %+v", st)
	}

	// First feedback re-anchors (cumulative counters are unanchored across
	// the restore); the next feedback ACK covering snd_nxt completes the
	// round.
	ingress(b, packAck(peer, ahost, 20, 10, 1401, 65535, 1400, 1400))
	if !f.Resyncing() {
		t.Fatal("one feedback packet should not complete resync")
	}
	ingress(b, packAck(peer, ahost, 20, 10, 1401, 65535, 1400, 1400))
	if f.Resyncing() {
		t.Fatalf("resync never completed (state %s)", f.ResyncState())
	}
	if got := b.Stats().FlowsResynced; got != 1 {
		t.Fatalf("FlowsResynced = %d", got)
	}

	// Enforcement is live again (the completing ACK itself re-enters the
	// enforced path): the peer's marked feedback cut the window well under
	// 64KB, so the next wide ACK must be rewritten down.
	before := b.Stats().RwndRewrites
	p = ackPkt(peer, ahost, 20, 10, 1401, 65535)
	ingress(b, p)
	if b.Stats().RwndRewrites != before+1 {
		t.Fatalf("RwndRewrites %d → %d after resync", before, b.Stats().RwndRewrites)
	}
	if w := p.TCP().Window(); w >= 65535 {
		t.Fatalf("post-resync ACK window %d not enforced", w)
	}
}

func TestRestoreRebaselinesFeedbackWithoutAlphaCredit(t *testing.T) {
	// The first feedback after a restore must not smear the peer's whole
	// cumulative history into the marked-byte window: it only re-anchors.
	a, ahost, peer := populatedVSwitch(t)
	snap := a.SaveSnapshot()
	b, _, _ := loneVSwitch(t, DefaultConfig())
	b.RestoreSnapshot(snap)
	f := b.Table.Get(FlowKey{Src: ahost, Dst: peer, SPort: 10, DPort: 20})
	// Feedback claiming 4GB-ish cumulative totals (a peer much further along
	// than our restored baseline).
	ingress(b, packAck(peer, ahost, 20, 10, 1401, 65535, 3_000_000_000, 2_999_000_000))
	wt, wm, lt := f.windowTotal, f.windowMarked, f.lastTotal
	if wt != 0 || wm != 0 {
		t.Fatalf("first post-restore feedback credited deltas: total=%d marked=%d", wt, wm)
	}
	if lt != 3_000_000_000 {
		t.Fatalf("lastTotal not re-anchored: %d", lt)
	}
}

func TestRestoreCapacityOverflowFailsOpen(t *testing.T) {
	a, _, _ := populatedVSwitch(t)
	snap := a.SaveSnapshot()
	cfg := DefaultConfig()
	cfg.MaxFlows = 1
	b, _, _ := loneVSwitch(t, cfg)
	b.RestoreSnapshot(snap)
	if n := b.Table.Len(); n != 1 {
		t.Fatalf("table len %d, want MaxFlows=1", n)
	}
	if st := b.Stats(); st.FlowTableFull == 0 {
		t.Fatal("overflow flows not counted as table-full fail-open")
	}
}

func TestSnapshotSkipsUDPTunnelFlows(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 1, 2, 100, 100))
	f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 2})
	f.isUDP = true
	if recs := v.SaveSnapshot(); len(recs) != 0 {
		t.Fatalf("UDP tunnel flow serialized: %d records", len(recs))
	}
}

func TestRestartColdWipesWarmRestores(t *testing.T) {
	a, _, _ := populatedVSwitch(t)
	n := a.Table.Len()
	snap := a.SaveSnapshot()

	a.Restart(nil) // cold
	if a.Table.Len() != 0 {
		t.Fatalf("cold restart left %d flows", a.Table.Len())
	}
	st := a.Stats()
	if st.Restarts != 1 || st.FlowsRemoved < int64(n) {
		t.Fatalf("cold restart accounting: %+v", st)
	}

	a.Restart(snap) // warm
	if a.Table.Len() != n {
		t.Fatalf("warm restart restored %d flows, want %d", a.Table.Len(), n)
	}
	if st = a.Stats(); st.Restarts != 2 || st.SnapshotRestores != 1 {
		t.Fatalf("warm restart accounting: %+v", st)
	}
	// The metrics registry models the host observability agent: it survives
	// the vSwitch process, so counters accumulate across restarts.
	if st.FlowsCreated < int64(2*n) {
		t.Fatalf("FlowsCreated = %d, want ≥ %d (restore recreates)", st.FlowsCreated, 2*n)
	}
}

func TestDetachReattachRoundTrip(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	v.Detach()
	if v.Attached() {
		t.Fatal("Detach left the datapath attached")
	}
	// Detached module: traffic passes untouched (fail open during downtime).
	p := dataPkt(host.Addr, packet.MakeAddr(10, 0, 0, 2), 1, 2, 100, 100)
	host.Output(p)
	if v.Table.Len() != 0 {
		t.Fatal("detached vSwitch still tracking flows")
	}
	v.Reattach()
	if !v.Attached() {
		t.Fatal("Reattach did not re-enable the datapath")
	}
	egress(v, dataPkt(host.Addr, packet.MakeAddr(10, 0, 0, 2), 1, 2, 200, 100))
	if v.Table.Len() != 1 {
		t.Fatal("reattached vSwitch not tracking")
	}
}

func TestSanitizeClampsHostileRecords(t *testing.T) {
	// A hostile record must be neutralized field by field before it can
	// reach the enforcement math.
	cfg := DefaultConfig()
	nan := 0.0
	nan /= nan // NaN without importing math
	r := flowRecord{
		Key:           FlowKey{Src: 1, Dst: 2, SPort: 3, DPort: 4},
		MSS:           7,
		CwndBytes:     nan,
		SsthreshBytes: -1,
		Alpha:         42,
		Beta:          -3,
		RwndClamp:     -9,
		SndUna:        100, // > SndNxt
		SndNxt:        50,
		VTimeouts:     -1,
		LossEvents:    -2,
		PrevCwnd:      nan,
		PolVCC:        "bbr2",
	}
	x := &r
	x.sanitize(&cfg)
	pol := r.policy()
	if x.MSS != uint32(cfg.MTU-40) {
		t.Fatalf("MSS = %d", x.MSS)
	}
	if !finitePositive(x.CwndBytes) || !finitePositive(x.SsthreshBytes) {
		t.Fatalf("cwnd=%v ssthresh=%v", x.CwndBytes, x.SsthreshBytes)
	}
	if x.Alpha < 0 || x.Alpha > 1 || pol.Beta < 0 || pol.Beta > 1 {
		t.Fatalf("alpha=%v beta=%v", x.Alpha, pol.Beta)
	}
	if pol.RwndClampBytes != 0 || pol.VCC != "" || x.SndUna > x.SndNxt || x.VTimeouts != 0 || x.LossEvents != 0 || x.PrevCwnd != 0 {
		t.Fatalf("sanitize left hostile fields: %+v, policy %+v", r, pol)
	}
}

func TestRestoreUnknownVCCNameDegradesToDefault(t *testing.T) {
	// A checkpoint naming a vCC this build doesn't have must restore onto
	// the default law, not panic.
	a, ahost, peer := populatedVSwitch(t)
	recs := a.SaveSnapshot()
	for i := range recs {
		recs[i].PolVCC = "bbr2"
	}
	b, _, _ := loneVSwitch(t, DefaultConfig())
	b.RestoreSnapshot(recs)
	f := b.Table.Get(FlowKey{Src: ahost, Dst: peer, SPort: 10, DPort: 20})
	if f == nil || f.vcc.String() != "dctcp" {
		t.Fatalf("unknown vCC did not degrade to default")
	}
}

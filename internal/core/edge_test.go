package core

import (
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// loneVSwitch builds a vSwitch whose host NIC discards everything, for
// datapath unit tests that feed packets by hand.
func loneVSwitch(t *testing.T, cfg Config) (*VSwitch, *netsim.Host, *sim.Simulator) {
	t.Helper()
	s := sim.New(5)
	host := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	host.NIC = netsim.NewLink(s, "nic", 10e9, sim.Microsecond,
		netsim.HandlerFunc(func(*packet.Packet) {}))
	return Attach(s, host, cfg), host, s
}

// egress and ingress run p through one datapath hook and collect what came
// out, for tests that feed packets by hand.
func egress(v *VSwitch, p *packet.Packet) []*packet.Packet  { return outputs(v.EgressPath(p)) }
func ingress(v *VSwitch, p *packet.Packet) []*packet.Packet { return outputs(v.IngressPath(p)) }

func outputs(ps ...*packet.Packet) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range ps {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

func dataPkt(src, dst packet.Addr, sp, dp uint16, seq uint32, n int) *packet.Packet {
	return packet.Build(src, dst, packet.NotECT, packet.TCPFields{
		SrcPort: sp, DstPort: dp, Seq: seq, Ack: 1,
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65535,
	}, n)
}

func ackPkt(src, dst packet.Addr, sp, dp uint16, ack uint32, wnd uint16) *packet.Packet {
	return packet.Build(src, dst, packet.NotECT, packet.TCPFields{
		SrcPort: sp, DstPort: dp, Seq: 1, Ack: ack,
		Flags: packet.FlagACK, Window: wnd,
	}, 0)
}

// TestEgressDropsReturnToPool: a packet the vSwitch drops on egress — a
// policed segment, a datagram past a full tunnel queue — goes back to the
// pool once, after the TSQ credit has read it, and the datagrams a tunnel
// queue still holds stay out of it until the GC retires their flow.
func TestEgressDropsReturnToPool(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	host := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	host.Pool = pool
	host.NIC = netsim.NewLink(s, "nic", 10e9, sim.Microsecond, netsim.HandlerFunc(pool.Put))
	host.OnTxFree = func(p *packet.Packet) {
		if q := pool.Get(packet.IPv4HeaderLen); q == p {
			t.Fatal("TSQ credited a packet that was already back in the pool")
		} else {
			pool.Put(q)
		}
	}
	cfg := DefaultConfig()
	cfg.MTU, cfg.Police, cfg.UDPTunnel = 1500, true, true
	v := Attach(s, host, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)

	// A handshake, then a segment past the window (10 MSS) plus its slack.
	tcp := func(f packet.TCPFields, payload int) {
		f.SrcPort, f.DstPort, f.Window = 100, 200, 65535
		host.Output(packet.BuildIn(pool, host.Addr, peer, packet.NotECT, f, payload))
	}
	tcp(packet.TCPFields{Flags: packet.FlagSYN}, 0)
	tcp(packet.TCPFields{Seq: 20_001, Ack: 1, Flags: packet.FlagACK}, 1000)
	// 10 datagrams fill the tunnel's window, 174 its queue, 16 are dropped.
	for i := 0; i < 200; i++ {
		host.Output(packet.BuildUDPIn(pool, host.Addr, peer, packet.NotECT, 6000, 7000, 1472))
	}
	st := v.Stats()
	if st.PolicingDrops != 17 || host.EgressDropped != 191 {
		t.Fatalf("%d policing drops, %d consumed on egress; want 1 + 16 and 17 + 174", st.PolicingDrops, host.EgressDropped)
	}
	s.RunFor(100 * sim.Microsecond) // the wire delivers what was sent
	udp := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 6000, DPort: 7000})
	if out, queued := pool.Gets-pool.Puts, int64(len(udp.cold.tq)); out != queued || queued != 174 {
		t.Fatalf("pool Gets − Puts = %d with %d datagrams queued, want both 174", out, queued)
	}
	v.sweepNow(s.Now() + 2*cfg.IdleTimeout)
	if v.Table.Len() != 0 {
		t.Fatalf("%d flows left after the sweep", v.Table.Len())
	}
	if out := pool.Gets - pool.Puts; out != 0 {
		t.Fatalf("pool Gets − Puts = %d after the GC retired the tunnel flow, want 0", out)
	}
}

func TestMidstreamAdoptionResync(t *testing.T) {
	// A vSwitch attached to an already-running connection (no SYN observed)
	// must anchor its absolute sequence space at the first data segment, land
	// in the conservative resync mode (no RWND rewrite, no policing), and
	// only re-enter enforcement after one clean PACK/FACK feedback round.
	cases := []struct {
		name string
		// feedback ACKs (cumulative totals) fed after two data segments; nil
		// entries are plain ACKs with no PACK option.
		feedback []*uint32
		resynced bool // expect resync complete at the end
		rewrites int64
	}{
		{
			name:     "adoption alone stays conservative",
			feedback: nil,
			resynced: false,
		},
		{
			name:     "one feedback packet re-anchors but does not complete",
			feedback: []*uint32{u32p(1000)},
			resynced: false,
		},
		{
			name:     "clean feedback round restores enforcement",
			feedback: []*uint32{u32p(1000), u32p(2000)},
			resynced: true,
		},
		{
			name:     "non-AC/DC peer never completes resync",
			feedback: []*uint32{nil, nil, nil, nil},
			resynced: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, host, _ := loneVSwitch(t, DefaultConfig())
			peer := packet.MakeAddr(10, 0, 0, 2)
			egress(v, dataPkt(host.Addr, peer, 100, 200, 777_000, 1000))
			f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 100, DPort: 200})
			if f == nil {
				t.Fatal("no flow created mid-stream")
			}
			if s := f.Snapshot(); s.SndNxt != 1000 {
				t.Fatalf("SndNxt = %d, want 1000 (anchored at first segment)", s.SndNxt)
			}
			if !f.Resyncing() {
				t.Fatal("mid-stream adoption must enter resync")
			}
			if got := v.Stats().FlowsAdoptedMidstream; got != 1 {
				t.Fatalf("FlowsAdoptedMidstream = %d", got)
			}
			egress(v, dataPkt(host.Addr, peer, 100, 200, 778_000, 1000))
			if s := f.Snapshot(); s.SndNxt != 2000 {
				t.Fatalf("SndNxt = %d after second segment", s.SndNxt)
			}
			for i, total := range tc.feedback {
				ackAbs := uint32(778_000 + 1000) // covers both segments
				if total == nil {
					ingress(v, ackPkt(peer, host.Addr, 200, 100, ackAbs, 65535))
				} else {
					ingress(v, packAck(peer, host.Addr, 200, 100, ackAbs, 65535, *total, *total))
				}
				// The conservative invariant, checked at every step: an
				// unsynced flow must never have its RWND rewritten.
				if f.Resyncing() && v.Stats().RwndRewrites != 0 {
					t.Fatalf("RWND rewritten while resyncing (feedback %d)", i)
				}
			}
			if got := f.Resyncing(); got == tc.resynced {
				t.Fatalf("Resyncing = %v at end (state %s)", got, f.ResyncState())
			}
			wantResynced := int64(0)
			if tc.resynced {
				wantResynced = 1
			}
			if got := v.Stats().FlowsResynced; got != wantResynced {
				t.Fatalf("FlowsResynced = %d, want %d", got, wantResynced)
			}
		})
	}
}

func u32p(v uint32) *uint32 { return &v }

func TestPolicingSuspendedDuringResync(t *testing.T) {
	// Policing drops segments beyond the virtual window — but an adopted
	// flow's window is a guess until the first clean feedback round, so
	// resyncing flows must pass unpoliced (conservative mode).
	cfg := DefaultConfig()
	cfg.Police = true
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 1, 2, 777_000, 8960))
	// A burst far beyond IW+slack: would be dropped on an enforced flow
	// (TestPolicingSlackAllowsInFlightAfterCut), must pass on a resyncing one.
	if out := egress(v, dataPkt(host.Addr, peer, 1, 2, 777_000+500_000, 8960)); len(out) != 1 {
		t.Fatal("resyncing flow was policed")
	}
	if v.Stats().PolicingDrops != 0 {
		t.Fatalf("PolicingDrops = %d during resync", v.Stats().PolicingDrops)
	}
}

func TestIngressAckWithoutFlowCountsUntracked(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 9)
	out := ingress(v, ackPkt(peer, host.Addr, 9, 9, 42, 100))
	if len(out) != 1 {
		t.Fatal("untracked ACK should pass through")
	}
	if v.Stats().UntrackedSegs != 1 {
		t.Fatalf("UntrackedSegs = %d", v.Stats().UntrackedSegs)
	}
}

func TestNonTCPPacketsPassThrough(t *testing.T) {
	v, _, _ := loneVSwitch(t, DefaultConfig())
	// A UDP-ish packet: valid IP, protocol 17.
	p := dataPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2), 1, 2, 0, 10)
	p.Buf[9] = 17
	packet.IPv4(p.Buf).ComputeChecksum()
	if out := egress(v, p); len(out) != 1 || out[0] != p {
		t.Fatal("non-TCP egress packet not passed through")
	}
	if out := ingress(v, p); len(out) != 1 {
		t.Fatal("non-TCP ingress packet not passed through")
	}
	// Garbage buffers must not panic.
	junk := &packet.Packet{Buf: []byte{1, 2, 3}}
	if out := egress(v, junk); len(out) != 1 {
		t.Fatal("junk egress not passed through")
	}
}

func TestFACKFallbackWhenOptionsFull(t *testing.T) {
	// An ACK whose TCP options area is already full forces the receiver
	// module onto the FACK path even with PACK enabled.
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	// Receiver-module state with counted bytes (peer → host data direction).
	dk := FlowKey{Src: peer, Dst: host.Addr, SPort: 200, DPort: 100}
	ingress(v, dataPkt(peer, host.Addr, 200, 100, 5000, 1500))
	if v.Table.Get(dk) == nil {
		t.Fatal("receiver flow not created")
	}

	full := make([]byte, 40)
	for i := range full {
		full[i] = packet.OptNOP
	}
	ack := packet.Build(host.Addr, peer, packet.NotECT, packet.TCPFields{
		SrcPort: 100, DstPort: 200, Seq: 1, Ack: 6500,
		Flags: packet.FlagACK, Window: 65535, Options: full,
	}, 0)
	out := egress(v, ack)
	if len(out) != 2 {
		t.Fatalf("expected real ACK + FACK, got %d packets", len(out))
	}
	if v.Stats().FacksSent != 1 {
		t.Fatalf("FacksSent = %d", v.Stats().FacksSent)
	}
	// The FACK carries the feedback under OptFACK.
	fb := packet.FindOption(out[1].TCP().Options(), packet.OptFACK)
	if info, ok := packet.ParsePACK(fb); !ok || info.TotalBytes != 1500 {
		t.Fatalf("FACK payload wrong: %v", fb)
	}
}

func TestLazyGCSweepsIdleFlows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCInterval = sim.Millisecond
	cfg.IdleTimeout = 2 * sim.Millisecond
	v, host, s := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 1, 2, 100, 100))
	if v.Table.Len() != 1 {
		t.Fatalf("table len %d", v.Table.Len())
	}
	// Advance time past the idle timeout (bounded run: the flow's
	// inactivity timer re-arms itself while data is outstanding), then push
	// enough packets on an unrelated flow to trigger the lazy sweep (every
	// 4096 datapath ops).
	s.RunFor(10 * sim.Millisecond)
	other := packet.MakeAddr(10, 0, 0, 3)
	for i := 0; i < 5000; i++ {
		egress(v, dataPkt(host.Addr, other, 7, 8, uint32(1000+i*100), 100))
	}
	if v.Stats().FlowsRemoved == 0 {
		t.Fatal("idle flow never swept")
	}
}

func TestPolicingSlackAllowsInFlightAfterCut(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Police = true
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	// Establish flow state via SYN.
	syn := packet.Build(host.Addr, peer, packet.NotECT, packet.TCPFields{
		SrcPort: 1, DstPort: 2, Seq: 999, Flags: packet.FlagSYN, Window: 65535,
		Options: packet.BuildSynOptions(8960, 7, true),
	}, 0)
	egress(v, syn)
	f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 2})
	// Data within IW+slack passes.
	if out := egress(v, dataPkt(host.Addr, peer, 1, 2, 1000, 8960)); len(out) != 1 {
		t.Fatal("conforming data dropped")
	}
	// Far beyond the window: dropped.
	if out := egress(v, dataPkt(host.Addr, peer, 1, 2, 1000+500_000, 8960)); out != nil {
		t.Fatal("excess data not policed")
	}
	if v.Stats().PolicingDrops != 1 {
		t.Fatalf("PolicingDrops = %d", v.Stats().PolicingDrops)
	}
	_ = f
}

func TestEgressMarksEverythingECT(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	for _, p := range []*packet.Packet{
		dataPkt(host.Addr, peer, 1, 2, 100, 100),
		ackPkt(host.Addr, peer, 1, 2, 50, 10),
	} {
		out := egress(v, p)
		if out[0].IP().ECN() != packet.ECT0 {
			t.Fatalf("egress packet not ECT: %v", out[0].IP().ECN())
		}
		if !out[0].IP().VerifyChecksum() {
			t.Fatal("marking broke checksum")
		}
	}
}

func TestIngressStripsCEForECNGuest(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	// Peer SYN with ECN negotiation (ECE|CWR), so GuestECN = true via
	// handshake observation, then SYN-ACK accepted.
	syn := packet.Build(peer, host.Addr, packet.NotECT, packet.TCPFields{
		SrcPort: 2, DstPort: 1, Seq: 0,
		Flags: packet.FlagSYN | packet.FlagECE | packet.FlagCWR, Window: 65535,
		Options: packet.BuildSynOptions(8960, 7, true),
	}, 0)
	ingress(v, syn)
	ce := packet.Build(peer, host.Addr, packet.CE, packet.TCPFields{
		SrcPort: 2, DstPort: 1, Seq: 1, Ack: 1,
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65535,
	}, 1000)
	out := ingress(v, ce)
	if got := out[0].IP().ECN(); got != packet.ECT0 {
		t.Fatalf("CE toward ECN guest should become ECT(0), got %v", got)
	}
	// And the receiver module counted the marked bytes before stripping.
	f := v.Table.Get(FlowKey{Src: peer, Dst: host.Addr, SPort: 2, DPort: 1})
	if s := f.Snapshot(); s.MarkedBytes != 1000 || s.TotalBytes != 1000 {
		t.Fatalf("counters: %+v", s)
	}
}

func TestVRenoVirtualCC(t *testing.T) {
	v, _, _ := loneVSwitch(t, DefaultConfig())
	id, ok := lookupVCC("reno")
	if !ok || id != vccReno {
		t.Fatalf("lookupVCC(reno) = %v, %v", id, ok)
	}
	f := &Flow{senderBlock: &senderBlock{MSS: 1500, CwndBytes: 30000, SsthreshBytes: 1 << 40}, Policy: &defaultPolicy, vcc: id}
	if id.cut(f) != 0.5 {
		t.Fatal("vReno must halve")
	}
	f.Alpha = maxAlpha // a loss pins α before the cut; Reno ignores it
	if id.cut(f) != 0.5 {
		t.Fatal("vReno must halve on loss too")
	}
	renoGrowBytes(f, 1500)
	if f.CwndBytes != 31500 {
		t.Fatalf("slow start growth: %v", f.CwndBytes)
	}
	v.collapseLocked(f)
	if f.CwndBytes != 1500 {
		t.Fatalf("timeout should collapse to 1 MSS: %v", f.CwndBytes)
	}
	if _, ok := lookupVCC("bbr"); ok || vccKnown("bbr") {
		t.Fatal("unknown vCC must not resolve")
	}
}

func TestPerFlowVCCOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowPolicy = func(k FlowKey) Policy {
		p := DefaultPolicy()
		if k.DPort == 443 {
			p.VCC = "reno" // e.g. WAN-bound flows on a loss-based law
		}
		return p
	}
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 1, 443, 100, 100))
	egress(v, dataPkt(host.Addr, peer, 1, 80, 100, 100))
	wan := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 443})
	dc := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 80})
	if wan.vcc.String() != "reno" || dc.vcc.String() != "dctcp" {
		t.Fatalf("per-flow vCC: wan=%s dc=%s", wan.vcc.String(), dc.vcc.String())
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SPort: 3, DPort: 4}
	r := k.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SPort != 4 || r.DPort != 3 {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse not identity")
	}
}

func TestEnforcedWindowClampAndFloor(t *testing.T) {
	f := &Flow{senderBlock: &senderBlock{CwndBytes: 100_000}, Policy: &Policy{Beta: 1, RwndClampBytes: 50_000}}
	if got := f.enforcedWindow(9000); got != 50_000 {
		t.Fatalf("clamp: %d", got)
	}
	f.CwndBytes = 100
	if got := f.enforcedWindow(9000); got != 9000 {
		t.Fatalf("floor: %d", got)
	}
}

func TestDupAckSynthesisTemplate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GenDupAcks = true
	v, host, s := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)

	var delivered []*packet.Packet
	host.Demux = netsim.HandlerFunc(func(p *packet.Packet) { delivered = append(delivered, p) })

	syn := packet.Build(host.Addr, peer, packet.NotECT, packet.TCPFields{
		SrcPort: 1, DstPort: 2, Seq: 0, Flags: packet.FlagSYN, Window: 65535,
		Options: packet.BuildSynOptions(8960, 7, true),
	}, 0)
	egress(v, syn)
	egress(v, dataPkt(host.Addr, peer, 1, 2, 1, 8960))
	// Feed one real ACK so the template fields are known.
	ingress(v, ackPkt(peer, host.Addr, 2, 1, 1+8960, 512))
	// More unacked data, then let the inactivity timer fire.
	egress(v, dataPkt(host.Addr, peer, 1, 2, 1+8960, 8960))
	s.RunFor(vTimeout + 5*sim.Millisecond)

	if v.Stats().VTimeouts == 0 {
		t.Fatal("vTimeout never fired")
	}
	if len(delivered) < 3 {
		t.Fatalf("expected ≥3 synthesized dupacks, got %d", len(delivered))
	}
	d := delivered[0]
	tc := d.TCP()
	if tc.SrcPort() != 2 || tc.DstPort() != 1 {
		t.Fatalf("dupack ports reversed: %v", d)
	}
	if tc.Ack() != 1+8960 {
		t.Fatalf("dupack acks %d, want snd_una", tc.Ack())
	}
	if !d.IP().VerifyChecksum() {
		t.Fatal("synthesized dupack has bad checksum")
	}
}

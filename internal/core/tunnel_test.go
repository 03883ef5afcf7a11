package core_test

import (
	"encoding/binary"
	"testing"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/udp"
	"acdc/internal/workload"
)

// udpBench: star with AC/DC (+UDP tunnels) and UDP endpoints everywhere.
func udpBench(t *testing.T, n int, tunnel bool) (*topo.Net, []*udp.Endpoint) {
	t.Helper()
	ac := core.DefaultConfig()
	ac.UDPTunnel = tunnel
	net := topo.Star(n, topo.Options{
		Guest: tcpstack.DefaultConfig(),
		ACDC:  &ac,
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
		Seed:  3,
	})
	eps := make([]*udp.Endpoint, n)
	for i := range eps {
		eps[i] = udp.NewEndpoint(net.Sim, net.Hosts[i])
	}
	return net, eps
}

func TestUDPDeliveryThroughTunnel(t *testing.T) {
	net, eps := udpBench(t, 2, true)
	got := 0
	eps[1].OnRecv = func(src packet.Addr, sport, dport uint16, payload int) {
		if dport == 7000 {
			got += payload
		}
	}
	for i := 0; i < 20; i++ {
		eps[0].Send(net.Addr(1), 6000, 7000, 1000)
	}
	net.Sim.RunFor(50 * sim.Millisecond)
	if got != 20_000 {
		t.Fatalf("delivered %d", got)
	}
}

func TestUDPTunnelProtectsTCP(t *testing.T) {
	// A no-congestion-control UDP blaster shares a bottleneck with a DCTCP-
	// enforced TCP flow. Without the tunnel the blaster's Not-ECT datagrams
	// are dropped wholesale at the WRED threshold while still crowding the
	// queue; with the tunnel the UDP flow is congestion-controlled, network
	// drops disappear, and the TCP flow keeps a sane share.
	run := func(tunnel bool) (tcpGbps, udpGbps float64, netDrops int64) {
		net, eps := udpBench(t, 3, tunnel)
		m := workload.NewManager(net)
		f := workload.Bulk(m, 0, 2) // TCP via AC/DC
		var udpRecv int64
		eps[2].OnRecv = func(_ packet.Addr, _, _ uint16, payload int) {
			udpRecv += int64(payload)
		}
		// Host 1 blasts 9 Gbps of UDP at the shared 10G downlink.
		eps[1].Blast(net.Addr(2), 6000, 7000, 8960, 9e9, 300*sim.Millisecond)
		net.Sim.RunFor(300 * sim.Millisecond)
		secs := net.Sim.Now().Seconds()
		return float64(f.Delivered()) * 8 / secs / 1e9,
			float64(udpRecv) * 8 / secs / 1e9,
			net.TotalDrops()
	}

	tcpOff, udpOff, dropsOff := run(false)
	tcpOn, udpOn, dropsOn := run(true)
	t.Logf("no tunnel: tcp=%.2fG udp=%.2fG drops=%d", tcpOff, udpOff, dropsOff)
	t.Logf("tunnel:    tcp=%.2fG udp=%.2fG drops=%d", tcpOn, udpOn, dropsOn)

	if dropsOff == 0 {
		t.Fatal("untunnelled blast should drop at the switch")
	}
	if dropsOn != 0 {
		t.Fatalf("tunnel should eliminate network drops, got %d", dropsOn)
	}
	// With the tunnel both flows share: each lands well off the extremes.
	if tcpOn < 2 || udpOn < 2 {
		t.Fatalf("unfair tunnel split: tcp=%.2f udp=%.2f", tcpOn, udpOn)
	}
	if tcpOn+udpOn < 8.5 {
		t.Fatalf("tunnel wastes capacity: aggregate %.2f", tcpOn+udpOn)
	}
}

func TestUDPTunnelFairnessBetweenUDPFlows(t *testing.T) {
	net, eps := udpBench(t, 3, true)
	var r0, r1 int64
	eps[2].OnRecv = func(_ packet.Addr, sport, _ uint16, payload int) {
		if sport == 6000 {
			r0 += int64(payload)
		} else {
			r1 += int64(payload)
		}
	}
	eps[0].Blast(net.Addr(2), 6000, 7000, 8960, 9e9, 200*sim.Millisecond)
	eps[1].Blast(net.Addr(2), 6001, 7000, 8960, 9e9, 200*sim.Millisecond)
	net.Sim.RunFor(200 * sim.Millisecond)
	lo, hi := r0, r1
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || float64(lo)/float64(hi) < 0.5 {
		t.Fatalf("tunnel unfair: %d vs %d", r0, r1)
	}
	if net.TotalDrops() != 0 {
		t.Fatalf("drops %d", net.TotalDrops())
	}
}

func TestUDPTunnelQueueBoundsAndDrops(t *testing.T) {
	// Two blasters at a combined ~18G contend for one 10G port: the tunnels
	// must absorb the marks, shrink their windows, and shed the excess at
	// the vSwitch — never in the fabric.
	net, eps := udpBench(t, 3, true)
	eps[0].Blast(net.Addr(2), 6000, 7000, 8960, 9e9, 100*sim.Millisecond)
	eps[1].Blast(net.Addr(2), 6001, 7000, 8960, 9e9, 100*sim.Millisecond)
	net.Sim.RunFor(110 * sim.Millisecond)
	shed := net.ACDC[0].Stats().PolicingDrops + net.ACDC[1].Stats().PolicingDrops
	if shed == 0 {
		t.Fatal("tunnels never shed excess load")
	}
	if net.TotalDrops() != 0 {
		t.Fatalf("fabric dropped %d despite tunnels", net.TotalDrops())
	}
}

func TestUDPPassthroughWithoutTunnelFlag(t *testing.T) {
	net, eps := udpBench(t, 2, false)
	got := 0
	eps[1].OnRecv = func(_ packet.Addr, _, _ uint16, payload int) { got += payload }
	eps[0].Send(net.Addr(1), 6000, 7000, 500)
	net.Sim.RunFor(5 * sim.Millisecond)
	if got != 500 {
		t.Fatalf("passthrough delivered %d", got)
	}
	if net.ACDC[0].Table.Len() != 0 {
		t.Fatal("UDP tracked without the tunnel flag")
	}
}

// TestUDPTunnelPinsParentCommit pins the examples/udptunnel run (a 9 Gbps
// UDP blaster against a TCP tenant on one 10G port, 300 ms) with the tunnel
// off and on. No digest covers the tunnel, so this is what says a change to
// the sender loop left it where it was. The values are the
// one-event-per-hop link's. With the tunnel on, its bytes and drops moved
// with that link's tie rule: at 44.004 ms a 4520-byte segment departs the
// switch port in the nanosecond a datagram arrives, and the datagram is now
// marked against the queue without it.
func TestUDPTunnelPinsParentCommit(t *testing.T) {
	type result struct{ tcpBytes, udpBytes, fabricDrops, tunnelDrops, processed int64 }
	run := func(tunnel bool) result {
		ac := core.DefaultConfig()
		ac.UDPTunnel = tunnel
		net := topo.Star(3, topo.Options{
			Guest: tcpstack.DefaultConfig(),
			ACDC:  &ac,
			RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
		})
		eps := make([]*udp.Endpoint, 3)
		for i := range eps {
			eps[i] = udp.NewEndpoint(net.Sim, net.Hosts[i])
		}
		tcp := workload.Bulk(workload.NewManager(net), 0, 2)
		var r result
		eps[2].OnRecv = func(_ packet.Addr, _, _ uint16, n int) { r.udpBytes += int64(n) }
		eps[1].Blast(net.Addr(2), 6000, 7000, 8960, 9e9, 300*sim.Millisecond)
		net.Sim.RunFor(300 * sim.Millisecond)
		r.tcpBytes = tcp.Delivered()
		r.fabricDrops = net.TotalDrops()
		r.tunnelDrops = net.ACDC[1].Stats().PolicingDrops
		r.processed = int64(net.Sim.Processed)
		return r
	}
	want := map[bool]result{
		false: {tcpBytes: 103561088, udpBytes: 268280320, fabricDrops: 7440, tunnelDrops: 0, processed: 210854},
		true:  {tcpBytes: 148419456, udpBytes: 223220480, fabricDrops: 0, tunnelDrops: 12442, processed: 240296},
	}
	for _, tunnel := range []bool{false, true} {
		if got := run(tunnel); got != want[tunnel] {
			t.Errorf("tunnel=%v: got %+v, parent commit gave %+v", tunnel, got, want[tunnel])
		}
	}
}

// TestUDPTunnelPeerRestartRebaselines restarts the receiver's vSwitch under
// a tunnel flow that has seen CE. The receiver module counts from zero again,
// so the next FACK's cumulative counters go backwards. The sender must
// re-baseline as a TCP flow does: count the reset, credit nothing to α, cut
// nothing, and write off the bytes the old count never reported.
func TestUDPTunnelPeerRestartRebaselines(t *testing.T) {
	s := sim.New(1)
	ha := netsim.NewHost(s, "a", packet.MakeAddr(10, 0, 0, 1))
	hb := netsim.NewHost(s, "b", packet.MakeAddr(10, 0, 0, 2))
	ha.NIC = netsim.NewLink(s, "a-nic", 10e9, sim.Microsecond, netsim.HandlerFunc(func(*packet.Packet) {}))
	hb.NIC = netsim.NewLink(s, "b-nic", 10e9, sim.Microsecond, ha) // b's FACKs reach a
	cfg := core.DefaultConfig()
	cfg.UDPTunnel = true
	a, b := core.Attach(s, ha, cfg), core.Attach(s, hb, cfg)

	// A full initial window of datagrams leaves a; the link between them is
	// played by hand, so each one reaches b exactly when the test says.
	var inFlight []*packet.Packet
	for i := 0; i < 10; i++ {
		out, _ := a.EgressPath(packet.BuildUDPIn(nil, ha.Addr, hb.Addr, packet.NotECT, 6000, 7000, 8960))
		if out == nil {
			t.Fatalf("datagram %d not admitted", i)
		}
		inFlight = append(inFlight, out)
	}
	deliver := func(ps []*packet.Packet, ce bool) {
		for _, p := range ps {
			if ce {
				p.IP().SetECN(packet.CE)
			}
			b.IngressPath(p)
		}
		s.RunFor(100 * sim.Microsecond)
	}
	deliver(inFlight[:3], false)
	deliver(inFlight[3:6], true)
	f := a.Table.Get(core.FlowKey{Src: ha.Addr, Dst: hb.Addr, SPort: 6000, DPort: 7000})
	before := f.Snapshot()
	if before.SndUna == 0 || before.SndUna >= before.SndNxt {
		t.Fatalf("before the restart: SndUna %d of SndNxt %d, want some but not all reported", before.SndUna, before.SndNxt)
	}
	if a.Stats().FacksConsumed == 0 || before.CwndBytes >= 10*9000 {
		t.Fatalf("before the restart: %d FACKs, cwnd %v: the CE never cut", a.Stats().FacksConsumed, before.CwndBytes)
	}

	b.Restart(nil)
	facks := a.Stats().FacksConsumed
	deliver(inFlight[6:], false)
	if a.Stats().FacksConsumed == facks {
		t.Fatal("no FACK after the restart")
	}
	after := f.Snapshot()
	if got := a.Stats().FeedbackResets; got != 1 {
		t.Errorf("feedback_resets_total = %d, want 1", got)
	}
	if after.Alpha != before.Alpha {
		t.Errorf("α %v → %v across the peer restart, want unchanged", before.Alpha, after.Alpha)
	}
	if after.CwndBytes != before.CwndBytes {
		t.Errorf("cwnd %v → %v across the peer restart, want no cut", before.CwndBytes, after.CwndBytes)
	}
	if after.SndUna != after.SndNxt {
		t.Errorf("SndUna %d, SndNxt %d: outstanding bytes not written off", after.SndUna, after.SndNxt)
	}
}

func TestBuildUDPWireFormat(t *testing.T) {
	p := packet.BuildUDPIn(nil, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
		packet.ECT0, 1234, 5678, 9000)
	ip := p.IP()
	if !ip.Valid() || ip.Protocol() != packet.ProtoUDP {
		t.Fatal("bad IP header")
	}
	if !ip.VerifyChecksum() {
		t.Fatal("bad checksum")
	}
	u := ip.UDP()
	if u.SrcPort() != 1234 || u.DstPort() != 5678 {
		t.Fatalf("ports %d %d", u.SrcPort(), u.DstPort())
	}
	if n := binary.BigEndian.Uint16(u[4:6]); n != packet.UDPHeaderLen+9000 {
		t.Fatalf("length %d", n)
	}
	if p.IPLen() != packet.IPv4HeaderLen+packet.UDPHeaderLen+9000 {
		t.Fatalf("IPLen %d", p.IPLen())
	}
}

package tcpstack

import (
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// bench is a star topology test harness: n hosts around one switch.
type bench struct {
	s      *sim.Simulator
	sw     *netsim.Switch
	hosts  []*netsim.Host
	stacks []*Stack
}

func newBench(t *testing.T, n int, cfg Config, red netsim.REDConfig, rate int64) *bench {
	t.Helper()
	s := sim.New(7)
	b := &bench{s: s, sw: netsim.NewSwitch(s, "tor", netsim.NewSharedBuffer(9<<20, 1.0))}
	for i := 0; i < n; i++ {
		addr := packet.MakeAddr(10, 0, 0, byte(i+1))
		h := netsim.NewHost(s, "h", addr)
		h.NIC = netsim.NewLink(s, "up", rate, 5*sim.Microsecond, b.sw)
		down := netsim.NewLink(s, "down", rate, 5*sim.Microsecond, h)
		port := b.sw.AddPort(down, red)
		b.sw.AddRoute(addr, port)
		b.hosts = append(b.hosts, h)
		b.stacks = append(b.stacks, NewStack(s, h, cfg))
	}
	return b
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.MTU = 1500
	return cfg
}

// transfer runs a one-way transfer of n bytes from stack a to b and returns
// the server conn after running the simulator for d.
func (b *bench) transfer(t *testing.T, from, to int, n int64, d sim.Duration) (*Conn, *Conn) {
	t.Helper()
	var srv *Conn
	b.stacks[to].Listen(5001, func(c *Conn) { srv = c })
	cli := b.stacks[from].Dial(b.hosts[to].Addr, 5001)
	cli.Send(n)
	b.s.RunFor(d)
	if srv == nil {
		t.Fatal("no connection accepted")
	}
	return cli, srv
}

func TestHandshakeAndTransfer(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	established := 0
	b.stacks[1].Listen(5001, func(c *Conn) {
		c.OnEstablished = func() { established++ }
	})
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.OnEstablished = func() { established++ }
	cli.Send(100_000)
	b.s.RunFor(100 * sim.Millisecond)
	if established != 2 {
		t.Fatalf("established callbacks = %d", established)
	}
	if cli.State() != StateEstablished {
		t.Fatalf("client state = %v", cli.State())
	}
	if cli.AckedBytes != 100_000 {
		t.Fatalf("acked = %d", cli.AckedBytes)
	}
}

func TestDeliveryExactBytes(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	var got int64
	b.stacks[1].Listen(5001, func(c *Conn) {
		c.OnRecv = func(n int) { got += int64(n) }
	})
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	const total = 3_456_789
	cli.Send(total)
	b.s.RunFor(200 * sim.Millisecond)
	if got != total {
		t.Fatalf("delivered %d, want %d", got, total)
	}
}

func TestMultipleSends(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	cli, srv := b.transfer(t, 0, 1, 1000, 10*sim.Millisecond)
	if srv.Delivered != 1000 {
		t.Fatalf("delivered %d", srv.Delivered)
	}
	// Messages queued later on the same connection flow too.
	cli.Send(2500)
	b.s.RunFor(10 * sim.Millisecond)
	cli.Send(499)
	b.s.RunFor(10 * sim.Millisecond)
	if srv.Delivered != 3999 {
		t.Fatalf("delivered %d, want 3999", srv.Delivered)
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	cfg := DefaultConfig() // 9K MTU
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 10e9)
	_, srv := b.transfer(t, 0, 1, 1<<40, 50*sim.Millisecond)
	rate := float64(srv.Delivered) * 8 / b.s.Now().Seconds()
	if rate < 9e9 {
		t.Fatalf("throughput = %.2f Gbps, want >9", rate/1e9)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	var srv *Conn
	b.stacks[1].Listen(5001, func(c *Conn) {
		srv = c
		c.OnEstablished = func() { c.Send(50_000) }
	})
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.Send(70_000)
	b.s.RunFor(100 * sim.Millisecond)
	if srv.Delivered != 70_000 {
		t.Fatalf("server got %d", srv.Delivered)
	}
	if cli.Delivered != 50_000 {
		t.Fatalf("client got %d", cli.Delivered)
	}
}

func TestWindowScaleNegotiation(t *testing.T) {
	cfg := smallCfg()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	cli, srv := b.transfer(t, 0, 1, 1000, 10*sim.Millisecond)
	if cli.peerWScale != wscale || srv.peerWScale != wscale {
		t.Fatalf("wscale: cli=%d srv=%d", cli.peerWScale, srv.peerWScale)
	}
	// Advertised window reconstructed at sender ≈ RcvBuf.
	if cli.SndWnd() < int64(cfg.RcvBuf)-(1<<wscale) || cli.SndWnd() > int64(cfg.RcvBuf) {
		t.Fatalf("sndWnd = %d, want ≈ %d", cli.SndWnd(), cfg.RcvBuf)
	}
}

func TestMSSNegotiationPicksMin(t *testing.T) {
	big := DefaultConfig() // MSS 8960
	small := smallCfg()    // MSS 1460
	s := sim.New(7)
	sw := netsim.NewSwitch(s, "tor", nil)
	mk := func(i byte, cfg Config) (*netsim.Host, *Stack) {
		addr := packet.MakeAddr(10, 0, 0, i)
		h := netsim.NewHost(s, "h", addr)
		h.NIC = netsim.NewLink(s, "up", 1e9, sim.Microsecond, sw)
		down := netsim.NewLink(s, "down", 1e9, sim.Microsecond, h)
		sw.AddRoute(addr, sw.AddPort(down, netsim.REDConfig{}))
		return h, NewStack(s, h, cfg)
	}
	_, stBig := mk(1, big)
	hSmall, stSmall := mk(2, small)
	_ = stSmall
	stSmall.Listen(5001, func(*Conn) {})
	cli := stBig.Dial(hSmall.Addr, 5001)
	cli.Send(10_000)
	s.RunFor(50 * sim.Millisecond)
	if cli.MSS() != 1460 {
		t.Fatalf("negotiated MSS = %d, want 1460", cli.MSS())
	}
}

func TestECNNegotiation(t *testing.T) {
	cfg := smallCfg()
	cfg.ECN = ECNRFC3168
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	cli, srv := b.transfer(t, 0, 1, 1000, 10*sim.Millisecond)
	if !cli.ecnOK || !srv.ecnOK {
		t.Fatal("ECN not negotiated between two capable stacks")
	}

	// Capable client, incapable server: not negotiated.
	off := smallCfg()
	b2 := newBench(t, 2, off, netsim.REDConfig{}, 1e9)
	b2.stacks[0].Cfg.ECN = ECNRFC3168
	cli2, srv2 := b2.transfer(t, 0, 1, 1000, 10*sim.Millisecond)
	if cli2.ecnOK || srv2.ecnOK {
		t.Fatal("ECN negotiated with incapable peer")
	}
}

func TestECTMarkingOnData(t *testing.T) {
	cfg := smallCfg()
	cfg.ECN = ECNRFC3168
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	var ectData, notECTAcks int
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() > 0 && p.IP().ECN() == packet.ECT0 {
			ectData++
		}
		if p.PayloadLen() == 0 && p.IP().ECN() == packet.NotECT {
			notECTAcks++
		}
		return p, nil
	}
	b.transfer(t, 0, 1, 100_000, 50*sim.Millisecond)
	if ectData == 0 {
		t.Fatal("no ECT-marked data packets")
	}
}

func TestFastRetransmit(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	// Drop exactly one mid-stream data packet.
	dropped := false
	count := 0
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() > 0 {
			count++
			if count == 20 && !dropped {
				dropped = true
				return nil, nil
			}
		}
		return p, nil
	}
	cli, srv := b.transfer(t, 0, 1, 500_000, 100*sim.Millisecond)
	if !dropped {
		t.Fatal("drop never triggered")
	}
	if srv.Delivered != 500_000 {
		t.Fatalf("delivered %d", srv.Delivered)
	}
	if cli.FastRecoveries == 0 {
		t.Fatal("no fast recovery")
	}
	if cli.Timeouts != 0 {
		t.Fatalf("recovered via RTO (%d) instead of fast retransmit", cli.Timeouts)
	}
}

func TestRTORecoversTailDrop(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	// Drop the last 3 data packets of the flow once (not retransmissions):
	// too few dupacks → RTO must fire.
	const total = 30_000 // ~21 segments
	segs := total/1460 + 1
	count := 0
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() > 0 {
			count++
			if count >= segs-2 && count <= segs {
				return nil, nil
			}
		}
		return p, nil
	}
	cli, srv := b.transfer(t, 0, 1, total, 500*sim.Millisecond)
	if srv.Delivered != total {
		t.Fatalf("delivered %d, want %d", srv.Delivered, total)
	}
	if cli.Timeouts == 0 {
		t.Fatal("expected an RTO")
	}
}

func TestRTOMinRespected(t *testing.T) {
	cfg := smallCfg()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	cli, _ := b.transfer(t, 0, 1, 10_000, 50*sim.Millisecond)
	if cli.currentRTO() < cfg.RTOMin {
		t.Fatalf("RTO %v below floor %v", cli.currentRTO(), cfg.RTOMin)
	}
}

func TestRandomLossEventuallyDelivers(t *testing.T) {
	// Property-style: with 2% random loss everything is still delivered.
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	rng := b.s.Rand()
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() > 0 && rng.Float64() < 0.02 {
			return nil, nil
		}
		return p, nil
	}
	_, srv := b.transfer(t, 0, 1, 2_000_000, 3*sim.Second)
	if srv.Delivered != 2_000_000 {
		t.Fatalf("delivered %d under random loss", srv.Delivered)
	}
	if srv.OOORanges() != 0 {
		t.Fatalf("OOO buffer not drained: %d ranges", srv.OOORanges())
	}
}

func TestFlowControlLimitsInflight(t *testing.T) {
	cfg := smallCfg()
	cfg.RcvBuf = 8 * 1460 // 8 segments
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	maxInflight := int64(0)
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		return p, nil
	}
	cli, srv := b.transfer(t, 0, 1, 1_000_000, 100*sim.Millisecond)
	_ = maxInflight
	if srv.Delivered != 1_000_000 {
		t.Fatalf("delivered %d", srv.Delivered)
	}
	if cli.SndWnd() > int64(cfg.RcvBuf) {
		t.Fatalf("sndWnd %d beyond rcvbuf", cli.SndWnd())
	}
}

func TestSubMSSSegmentsWhenWindowTiny(t *testing.T) {
	// Peer advertises less than one MSS: sender must emit sub-MSS segments,
	// the behaviour AC/DC's byte-granularity RWND floor relies on.
	cfg := smallCfg()
	cfg.RcvBuf = 700 // < MSS: advertised as 640 at window scale 7
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	var subMSS int
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if n := p.PayloadLen(); n > 0 && n < 1460 {
			subMSS++
		}
		return p, nil
	}
	_, srv := b.transfer(t, 0, 1, 7000, 200*sim.Millisecond)
	if srv.Delivered != 7000 {
		t.Fatalf("delivered %d", srv.Delivered)
	}
	if subMSS == 0 {
		t.Fatal("no sub-MSS segments under tiny window")
	}
}

func TestIgnoreRwndStack(t *testing.T) {
	cfg := smallCfg()
	cfg.RcvBuf = 2 * 1460
	cfg.IgnoreRwnd = true
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	var maxPayloadBurst int64
	var inflight int64
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		inflight += int64(p.PayloadLen())
		if inflight > maxPayloadBurst {
			maxPayloadBurst = inflight
		}
		return p, nil
	}
	b.transfer(t, 0, 1, 1_000_000, 50*sim.Millisecond)
	// A conforming stack would never exceed 2 segments in flight; the
	// non-conforming one blows past the advertised window.
	if maxPayloadBurst <= 2*1460 {
		t.Fatalf("IgnoreRwnd stack stayed within window: %d", maxPayloadBurst)
	}
}

func TestCloseHandshake(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	srvClosed, cliClosed, peerEOF := false, false, false
	var delivered int64
	b.stacks[1].Listen(5001, func(c *Conn) {
		c.OnPeerClose = func() {
			peerEOF = true
			c.Close() // close in response
		}
		// The record is the stack's again once OnClosed returns: read here.
		c.OnClosed = func() { srvClosed, delivered = true, c.Delivered }
	})
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.OnClosed = func() { cliClosed = true }
	cli.Send(10_000)
	b.s.Schedule(20*sim.Millisecond, func() { cli.Close() })
	b.s.RunFor(2 * sim.Second)
	if !peerEOF {
		t.Fatal("peer never saw EOF")
	}
	if delivered != 10_000 {
		t.Fatalf("delivered %d before close", delivered)
	}
	if !srvClosed || !cliClosed {
		t.Fatalf("teardown incomplete: srv=%v cli=%v", srvClosed, cliClosed)
	}
	if b.stacks[0].NumConns() != 0 || b.stacks[1].NumConns() != 0 {
		t.Fatalf("conns leaked: %d %d", b.stacks[0].NumConns(), b.stacks[1].NumConns())
	}
	if n := b.checkParked(t); n != 2 {
		t.Fatalf("%d records parked, want both ends", n)
	}
}

func TestCloseWithPendingData(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	var srv *Conn
	b.stacks[1].Listen(5001, func(c *Conn) { srv = c })
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.Send(200_000)
	cli.Close() // FIN must trail all the data
	b.s.RunFor(500 * sim.Millisecond)
	if srv.Delivered != 200_000 {
		t.Fatalf("delivered %d", srv.Delivered)
	}
	if srv.State() != StateCloseWait {
		t.Fatalf("server state = %v, want CloseWait", srv.State())
	}
}

func TestRTTSampleMagnitude(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	cli, _ := b.transfer(t, 0, 1, 100_000, 100*sim.Millisecond)
	// Base RTT = 4 hops × 5us + serialization; SRTT must land in [20us, 1ms].
	if cli.SRTT() < 20_000 || cli.SRTT() > 1_000_000 {
		t.Fatalf("SRTT = %dns", cli.SRTT())
	}
}

func TestSlowStartThenCA(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	cli, _ := b.transfer(t, 0, 1, 5_000_000, 200*sim.Millisecond)
	if cli.Cwnd() <= initCwnd {
		t.Fatalf("cwnd never grew: %v", cli.Cwnd())
	}
}

func TestStackDropsUnmatchedSegments(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	// Packet to a port nobody listens on.
	p := packet.Build(b.hosts[0].Addr, b.hosts[1].Addr, packet.NotECT,
		packet.TCPFields{SrcPort: 1, DstPort: 9999, Flags: packet.FlagACK, Window: 100}, 0)
	b.hosts[0].Output(p)
	b.s.RunFor(sim.Millisecond)
	if b.stacks[1].DroppedSegs != 1 {
		t.Fatalf("DroppedSegs = %d", b.stacks[1].DroppedSegs)
	}
}

func TestSynRetransmission(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	// Drop the first SYN only.
	first := true
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.TCP().HasFlags(packet.FlagSYN) && first {
			first = false
			return nil, nil
		}
		return p, nil
	}
	cli, srv := b.transfer(t, 0, 1, 1000, sim.Second)
	if cli.State() != StateEstablished {
		t.Fatalf("client state = %v", cli.State())
	}
	if srv.Delivered != 1000 {
		t.Fatalf("delivered %d", srv.Delivered)
	}
}

func TestDelayedAckCoalesces(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	var acks, dataSegs int
	b.hosts[1].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() == 0 && p.TCP().HasFlags(packet.FlagACK) && !p.TCP().HasFlags(packet.FlagSYN) {
			acks++
		}
		return p, nil
	}
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() > 0 {
			dataSegs++
		}
		return p, nil
	}
	b.transfer(t, 0, 1, 1_000_000, 100*sim.Millisecond)
	if acks == 0 || dataSegs == 0 {
		t.Fatal("no traffic observed")
	}
	// Delayed ACKs: at most ~1 ACK per 2 data segments (plus handshake slop).
	if float64(acks) > 0.7*float64(dataSegs) {
		t.Fatalf("too many ACKs: %d for %d data segments", acks, dataSegs)
	}
}

func TestUnwrapRoundTrip(t *testing.T) {
	// Unwrap must recover absolute offsets across the 32-bit boundary.
	base := uint32(0xffff_ff00)
	for _, abs := range []int64{0, 1, 255, 256, 1 << 20, 1 << 33, 1<<33 + 12345} {
		wire := base + uint32(abs)
		for _, refDelta := range []int64{-1000, 0, 1000} {
			ref := abs + refDelta
			if ref < 0 {
				ref = 0
			}
			if got := unwrap(wire, base, ref); got != abs {
				t.Fatalf("unwrap(%#x, ref=%d) = %d, want %d", wire, ref, got, abs)
			}
		}
	}
}

func TestLargeTransferCrossesSeqWrap(t *testing.T) {
	if testing.Short() {
		t.Skip("long transfer")
	}
	// Force the ISS high so the 32-bit wire sequence wraps mid-flow.
	b := newBench(t, 2, DefaultConfig(), netsim.REDConfig{}, 10e9)
	var srv *Conn
	b.stacks[1].Listen(5001, func(c *Conn) { srv = c })
	// Build the client by hand so the ISS is pinned just below the 32-bit
	// wrap before the SYN goes out.
	st := b.stacks[0]
	cli := newConn(st, makeKey(40000, b.hosts[1].Addr, 5001), false)
	cli.iss = 0xffff_0000
	st.conns.Put(cli.key, cli)
	cli.sendSYN()
	const total = 64 << 20
	cli.Send(total)
	b.s.RunFor(200 * sim.Millisecond)
	if srv == nil || srv.Delivered != total {
		t.Fatalf("wraparound transfer delivered %v", srv.Delivered)
	}
}

package tcpstack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

func TestZeroWindowPersist(t *testing.T) {
	// Receiver advertises a zero window (a buffer below the scale quantum);
	// the sender must probe and eventually complete when the window opens.
	cfg := smallCfg()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	// Force the server to advertise 0 by shrinking its buffer below the
	// scale quantum.
	srvCfg := cfg
	srvCfg.RcvBuf = 100 // 100 >> 7 = 0 → advertised window 0
	b.stacks[1].Cfg = srvCfg
	var srv *Conn
	b.stacks[1].Listen(5001, func(c *Conn) { srv = c })
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.Send(5000)
	b.s.RunFor(2 * sim.Second)
	if srv == nil {
		t.Fatal("no accept")
	}
	// The persist machinery must keep the connection alive and move at
	// least some data via window probes.
	if srv.Delivered == 0 {
		t.Fatal("zero-window connection made no progress")
	}
}

func TestTimeWaitReAcksRetransmittedFIN(t *testing.T) {
	cfg := smallCfg()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	var srv *Conn
	b.stacks[1].Listen(5001, func(c *Conn) {
		srv = c
		c.OnPeerClose = func() { c.Close() }
	})
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.Send(1000)
	b.s.Schedule(10*sim.Millisecond, cli.Close)
	// Drop the client's final ACK of the server FIN exactly once so the
	// server retransmits its FIN into the client's TIME_WAIT.
	var droppedAt, refinAt, closedAt sim.Time
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		tc := p.TCP()
		if droppedAt == 0 && tc.HasFlags(packet.FlagACK) && !tc.HasFlags(packet.FlagFIN) &&
			p.PayloadLen() == 0 && cli.State() == StateTimeWait {
			droppedAt = b.s.Now()
			return nil, nil
		}
		return p, nil
	}
	b.hosts[1].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if droppedAt != 0 && p.TCP().HasFlags(packet.FlagFIN) {
			refinAt = b.s.Now()
		}
		return p, nil
	}
	cli.OnClosed = func() { closedAt = b.s.Now() }
	b.s.RunFor(3 * sim.Second)
	if droppedAt == 0 || refinAt == 0 {
		t.Fatalf("no TIME_WAIT ACK drop (%v) or no retransmitted FIN (%v)", droppedAt, refinAt)
	}
	if b.stacks[1].NumConns() != 0 {
		t.Fatalf("server conn stuck in %v", srv.State())
	}
	// RFC 793 §3.9: the retransmitted FIN restarts the 2 MSL wait, so the
	// client lingers a full TIME_WAIT past it and not only past the first FIN.
	if refinAt <= droppedAt || closedAt < refinAt+4*cfg.RTOMin {
		t.Fatalf("TIME_WAIT entered %v, FIN retransmitted %v, closed %v: want a full %v after the retransmission",
			droppedAt, refinAt, closedAt, 4*cfg.RTOMin)
	}
	if n := b.checkParked(t); n != 2 {
		t.Fatalf("%d records parked, want both ends", n)
	}
}

// TestFINAheadOfHoleClosesWhenFilled: a FIN that arrives while one segment
// ahead of it is missing is held until the hole fills; the segment that fills
// it also consumes the FIN, so the receiver acknowledges it at once and the
// sender never has to retransmit it.
func TestFINAheadOfHoleClosesWhenFilled(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	var srv *Conn
	var peerClosedAt sim.Time
	b.stacks[1].Listen(5001, func(c *Conn) {
		srv = c
		c.OnPeerClose = func() { peerClosedAt = b.s.Now() }
	})
	// Drop the third data segment once; the FIN rides on the tenth and last.
	dataSegs, finSegs := 0, 0
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.TCP().HasFlags(packet.FlagFIN) {
			finSegs++
		}
		if p.PayloadLen() > 0 {
			if dataSegs++; dataSegs == 3 {
				return nil, nil
			}
		}
		return p, nil
	}
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	const total = 10 * 1460
	cli.Send(total)
	cli.Close()
	b.s.RunFor(100 * sim.Millisecond)
	if srv == nil || srv.Delivered != total {
		t.Fatalf("server conn %v, want %d bytes delivered", srv, total)
	}
	if peerClosedAt == 0 || srv.State() != StateCloseWait {
		t.Fatalf("peer close seen at %v, server state %v: want the FIN consumed when the hole filled", peerClosedAt, srv.State())
	}
	if finSegs != 1 || cli.RetransSegs != 1 || cli.Timeouts != 0 {
		t.Fatalf("%d FIN segments, %d retransmissions, %d timeouts: want the FIN sent once and only the lost segment resent",
			finSegs, cli.RetransSegs, cli.Timeouts)
	}
	if cli.State() != StateFinWait2 {
		t.Fatalf("client state %v, want FinWait2 (its FIN acknowledged)", cli.State())
	}
}

func TestSimultaneousClose(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	var srv *Conn
	b.stacks[1].Listen(5001, func(c *Conn) { srv = c })
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.Send(1000)
	b.s.RunFor(20 * sim.Millisecond)
	// Close both ends in the same instant.
	cli.Close()
	srv.Close()
	b.s.RunFor(3 * sim.Second)
	if b.stacks[0].NumConns() != 0 || b.stacks[1].NumConns() != 0 {
		t.Fatalf("simultaneous close leaked conns: cli=%v srv=%v", cli.State(), srv.State())
	}
	if n := b.checkParked(t); n != 2 {
		t.Fatalf("%d records parked, want both ends", n)
	}
}

func TestDelayedAckTimerFires(t *testing.T) {
	// A single odd segment (below delAckSegs) must still get acked within
	// the delack timeout, unblocking the sender.
	cfg := smallCfg()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	cli, srv := b.transfer(t, 0, 1, 500, 20*sim.Millisecond) // one small segment
	if srv.Delivered != 500 {
		t.Fatalf("delivered %d", srv.Delivered)
	}
	if cli.AckedBytes != 500 {
		t.Fatalf("acked %d; delack timer never fired?", cli.AckedBytes)
	}
}

func TestClassicECNLatchUntilCWR(t *testing.T) {
	cfg := smallCfg()
	cfg.ECN = ECNRFC3168
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	var srv *Conn
	b.stacks[1].Listen(5001, func(c *Conn) { srv = c })
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.Send(200_000)

	// Mark exactly one data packet CE in flight; count ECE echoes and CWR.
	marked := false
	var eceSeen, cwrSeen int
	count := 0
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() > 0 {
			count++
			if count == 10 && !marked {
				marked = true
				p.IP().SetECN(packet.CE)
			}
			if p.TCP().HasFlags(packet.FlagCWR) {
				cwrSeen++
			}
		}
		return p, nil
	}
	b.hosts[1].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.TCP().HasFlags(packet.FlagECE) {
			eceSeen++
		}
		return p, nil
	}
	b.s.RunFor(100 * sim.Millisecond)
	if srv.Delivered != 200_000 {
		t.Fatalf("delivered %d", srv.Delivered)
	}
	if eceSeen == 0 {
		t.Fatal("CE never echoed as ECE")
	}
	if cwrSeen == 0 {
		t.Fatal("sender never sent CWR after reducing")
	}
	if cli.Timeouts != 0 || cli.FastRecoveries != 0 {
		t.Fatal("ECN reduction should not involve loss recovery")
	}
}

func TestCwndClampConfig(t *testing.T) {
	cfg := smallCfg()
	cfg.CwndClamp = 4
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 10e9)
	cli, _ := b.transfer(t, 0, 1, 1<<30, 50*sim.Millisecond)
	if cli.Cwnd() > 4.01 {
		t.Fatalf("cwnd %v above clamp", cli.Cwnd())
	}
}

func TestDCTCPAlphaTracksMarkingUnderLightLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CC = "dctcp"
	cfg.ECN = ECNDCTCP
	b := newBench(t, 3, cfg, netsim.REDConfig{MarkThresholdBytes: 90_000}, 10e9)
	var srv *Conn
	b.stacks[2].Listen(5001, func(c *Conn) { srv = c })
	c1 := b.stacks[0].Dial(b.hosts[2].Addr, 5001)
	c1.Send(1 << 40)
	b.s.RunFor(50 * sim.Millisecond)
	_ = srv
	// Single flow at line rate: marks are rare, α must decay low.
	type alphaer interface{ Alpha(*ccCtx) float64 }
	if a, ok := c1.Algorithm().(alphaer); ok {
		if got := a.Alpha(&c1.ctx); got > 0.5 {
			t.Fatalf("alpha %v should decay under light marking", got)
		}
	} else {
		t.Fatal("algorithm is not DCTCP")
	}
}

// Property: a transfer delivered across random per-packet loss (up to 10%)
// always arrives complete and in order (the OOO buffer drains).
func TestLossyDeliveryProperty(t *testing.T) {
	prop := func(seed int64, lossPct uint8) bool {
		loss := float64(lossPct%10) / 100
		b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
		rng := rand.New(rand.NewSource(seed))
		b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
			if p.PayloadLen() > 0 && rng.Float64() < loss {
				return nil, nil
			}
			return p, nil
		}
		var srv *Conn
		b.stacks[1].Listen(5001, func(c *Conn) { srv = c })
		cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
		const total = 300_000
		cli.Send(total)
		b.s.RunFor(5 * sim.Second)
		return srv != nil && srv.Delivered == total && srv.OOORanges() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: delivered bytes never exceed sent bytes and OnRecv sums to
// Delivered, across random message patterns.
func TestRecvAccountingProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
		var sum int64
		var cbTotal int64
		var srv *Conn
		b.stacks[1].Listen(5001, func(c *Conn) {
			srv = c
			c.OnRecv = func(n int) { cbTotal += int64(n) }
		})
		cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
		for _, s := range sizes {
			n := int64(s%5000) + 1
			sum += n
			cli.Send(n)
		}
		if sum == 0 {
			return true
		}
		b.s.RunFor(2 * sim.Second)
		return srv != nil && srv.Delivered == sum && cbTotal == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStateStringAndConnString(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	cli, _ := b.transfer(t, 0, 1, 100, 10*sim.Millisecond)
	if StateEstablished.String() != "Established" {
		t.Fatal("state string")
	}
	if s := cli.String(); s == "" {
		t.Fatal("conn string empty")
	}
	if cli.BytesQueued() != 0 {
		t.Fatalf("queued %d after full ack", cli.BytesQueued())
	}
}

func TestTSQBoundsNICQueue(t *testing.T) {
	cfg := DefaultConfig()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9) // slow 1G NIC
	var maxQ int
	probe := func() {}
	probe = func() {
		if q := b.hosts[0].NIC.QueueBytes(); q > maxQ {
			maxQ = q
		}
		b.s.Schedule(100*sim.Microsecond, probe)
	}
	b.s.Schedule(0, probe)
	b.transfer(t, 0, 1, 1<<30, 50*sim.Millisecond)
	// One flow: NIC queue must stay near the TSQ limit, not the cwnd.
	if maxQ > tsqLimit+2*9000 {
		t.Fatalf("NIC queue %d exceeds TSQ bound", maxQ)
	}
	if maxQ == 0 {
		t.Fatal("no queue observed")
	}
}

// TestOutputBuildsWindowBeforeEgress pins what the tx burst buffer is for:
// one output call builds its whole window — every segment counted in
// SentSegs — before the first segment reaches the host's egress path (the
// vSwitch, then the NIC). A stack that handed each segment to Host.Output as
// it was built would interleave the vSwitch's and NIC's work with its own;
// that variant moved the feedback-blackout/acdc scenario's fairness from
// 0.667 to 0.369 (EXPERIMENTS.md "Batch datapath removed").
func TestOutputBuildsWindowBeforeEgress(t *testing.T) {
	cfg := smallCfg()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	b.stacks[1].Listen(5001, func(*Conn) {})
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	b.s.RunFor(sim.Millisecond)
	if cli.State() != StateEstablished {
		t.Fatalf("client state %v after the handshake", cli.State())
	}

	var seen []int64 // cli.SentSegs as each data segment reaches egress
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() > 0 {
			seen = append(seen, cli.SentSegs)
		}
		return p, nil
	}
	before := cli.SentSegs
	cli.Send(8 * int64(cfg.MSS())) // one call, inside the initial window
	built := cli.SentSegs - before
	if built != 8 || int64(len(seen)) != built {
		t.Fatalf("one output call built %d segments and sent %d to egress; want 8 and 8", built, len(seen))
	}
	for i, n := range seen {
		if n != cli.SentSegs {
			t.Fatalf("segment %d reached egress with %d segments built, want all %d: the window must be built before any of it leaves",
				i+1, n-before, built)
		}
	}
}

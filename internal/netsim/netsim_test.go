package netsim

import (
	"testing"
	"testing/quick"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

type collector struct {
	pkts  []*packet.Packet
	times []sim.Time
	s     *sim.Simulator
	onPkt func() // optional: invoked after each delivery
}

func (c *collector) HandlePacket(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.s.Now())
	if c.onPkt != nil {
		c.onPkt()
	}
}

func mkPkt(payload int) *packet.Packet {
	return packet.Build(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
		packet.ECT0, packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK, Window: 100}, payload)
}

func mkPktTo(dst packet.Addr, ecn packet.ECN, payload int) *packet.Packet {
	return packet.Build(packet.MakeAddr(10, 0, 0, 1), dst, ecn,
		packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK, Window: 100}, payload)
}

func TestLinkSerializationAndDelay(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	// 1 Gbps, 10us delay.
	l := NewLink(s, "t", 1e9, 10*sim.Microsecond, c)
	p := mkPkt(1000)
	wire := p.WireLen()
	l.Send(p)
	s.RunAll()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(c.pkts))
	}
	wantTx := sim.Duration(int64(wire) * 8) // 1 byte = 8ns at 1 Gbps
	want := wantTx + 10*sim.Microsecond
	if c.times[0] != want {
		t.Fatalf("delivery at %v, want %v", c.times[0], want)
	}
}

func TestLinkFIFOAndBackToBack(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 0, c)
	p1, p2 := mkPkt(1000), mkPkt(500)
	l.Send(p1)
	l.Send(p2)
	if l.QueueLen() != 2 {
		t.Fatalf("queue len = %d", l.QueueLen())
	}
	s.RunAll()
	if len(c.pkts) != 2 || c.pkts[0] != p1 || c.pkts[1] != p2 {
		t.Fatal("FIFO order violated")
	}
	// Second delivery = tx(p1) + tx(p2), back-to-back.
	want := l.TxTime(p1.WireLen()) + l.TxTime(p2.WireLen())
	if c.times[1] != want {
		t.Fatalf("p2 at %v, want %v", c.times[1], want)
	}
	if l.Stats.SentPackets != 2 || l.QueueBytes() != 0 {
		t.Fatalf("stats: %+v qbytes=%d", l.Stats, l.QueueBytes())
	}
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	l := NewLink(s, "t", 10e9, sim.Microsecond, c)
	// Saturate for 10ms.
	n := 0
	var offer func()
	offer = func() {
		if s.Now() >= 10*sim.Millisecond {
			return
		}
		if l.QueueLen() < 4 {
			l.Send(mkPkt(8948))
			n++
		}
		s.Schedule(sim.Microsecond, offer)
	}
	s.Schedule(0, offer)
	s.Run(10 * sim.Millisecond)
	util := l.Utilization()
	if util < 0.95 || util > 1.0001 {
		t.Fatalf("utilization = %v, want ~1.0 (sent %d)", util, n)
	}
}

type dropAll struct{}

func (dropAll) OnEnqueue(*Link, *packet.Packet) bool { return false }
func (dropAll) OnDequeue(*Link, *packet.Packet)      {}

func TestLinkPolicyDrop(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 0, c)
	l.Policy = dropAll{}
	if l.Send(mkPkt(100)) {
		t.Fatal("Send should report drop")
	}
	s.RunAll()
	if len(c.pkts) != 0 || l.Stats.Drops != 1 {
		t.Fatal("dropped packet delivered or not counted")
	}
}

func TestSharedBufferDynamicThreshold(t *testing.T) {
	b := NewSharedBuffer(1000, 1.0)
	// Empty pool: a port may take up to alpha*free = 1000.
	if !b.Admit(0, 600) {
		t.Fatal("admit 600 into empty pool failed")
	}
	if b.Used() != 600 || b.Free() != 400 {
		t.Fatalf("used=%d free=%d", b.Used(), b.Free())
	}
	// Same port now holds 600, free=400: 600+300 > 1*400 → reject.
	if b.Admit(600, 300) {
		t.Fatal("DT should reject when port exceeds alpha*free")
	}
	// A different empty port can still take up to 400.
	if !b.Admit(0, 200) {
		t.Fatal("second port admit failed")
	}
	// Pool exhaustion.
	if b.Admit(0, 300) {
		t.Fatal("admitted beyond remaining free")
	}
	b.Release(200)
	if b.Used() != 600 {
		t.Fatalf("used=%d after release", b.Used())
	}
}

func TestSharedBufferReleasePanicsOnUnderflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSharedBuffer(10, 1).Release(1)
}

// Property: used never exceeds total and never goes negative under any
// admit/release sequence.
func TestSharedBufferInvariantProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		b := NewSharedBuffer(10000, 2.0)
		var held []int
		for _, op := range ops {
			n := int(op%997) + 1
			if op%2 == 0 {
				if b.Admit(0, n) {
					held = append(held, n)
				}
			} else if len(held) > 0 {
				b.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if b.Used() < 0 || b.Used() > b.Total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPortQueueMarksECT(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 0, c)
	l.Policy = &PortQueue{Red: REDConfig{MarkThresholdBytes: 1}} // mark everything after first
	p1 := mkPktTo(packet.MakeAddr(10, 0, 0, 9), packet.ECT0, 1000)
	p2 := mkPktTo(packet.MakeAddr(10, 0, 0, 9), packet.ECT0, 1000)
	l.Send(p1)
	l.Send(p2) // queue nonempty → mark
	s.RunAll()
	if c.pkts[0].IP().ECN() != packet.ECT0 {
		t.Fatal("first packet should be unmarked")
	}
	if c.pkts[1].IP().ECN() != packet.CE {
		t.Fatal("second packet should be CE")
	}
	if !c.pkts[1].IP().VerifyChecksum() {
		t.Fatal("marking broke IP checksum")
	}
	if l.Stats.Marks != 1 {
		t.Fatalf("marks = %d", l.Stats.Marks)
	}
}

func TestPortQueueDropsNonECTAboveThreshold(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 0, c)
	l.Policy = &PortQueue{Red: REDConfig{MarkThresholdBytes: 1}}
	l.Send(mkPktTo(packet.MakeAddr(10, 0, 0, 9), packet.NotECT, 1000))
	ok := l.Send(mkPktTo(packet.MakeAddr(10, 0, 0, 9), packet.NotECT, 1000))
	if ok {
		t.Fatal("Not-ECT packet above threshold should drop")
	}
	if l.Stats.DropsNonECT != 1 {
		t.Fatalf("DropsNonECT = %d", l.Stats.DropsNonECT)
	}
	s.RunAll()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d", len(c.pkts))
	}
}

func TestPortQueueCEPassesThrough(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, "t", 1e9, 0, &collector{s: s})
	l.Policy = &PortQueue{Red: REDConfig{MarkThresholdBytes: 1}}
	l.Send(mkPktTo(packet.MakeAddr(10, 0, 0, 9), packet.CE, 1000))
	if !l.Send(mkPktTo(packet.MakeAddr(10, 0, 0, 9), packet.CE, 1000)) {
		t.Fatal("CE packet should be admitted above threshold")
	}
	if l.Stats.Marks != 0 {
		t.Fatal("CE packet should not be re-marked")
	}
}

func TestPortQueueSharedBufferDrop(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 0, c)
	buf := NewSharedBuffer(3000, 1.0)
	l.Policy = &PortQueue{Buffer: buf}
	p := mkPkt(1000)
	if !l.Send(p) {
		t.Fatal("first packet rejected")
	}
	l.Send(mkPkt(1000))
	// Port holds ~2100B, free ~900 → DT rejects next 1000B packet.
	if l.Send(mkPkt(1000)) {
		t.Fatal("should exceed dynamic threshold")
	}
	s.RunAll()
	if buf.Used() != 0 {
		t.Fatalf("buffer leak: used=%d", buf.Used())
	}
}

func buildStar(t *testing.T, s *sim.Simulator, n int, red REDConfig) (*Switch, []*Host) {
	t.Helper()
	sw := NewSwitch(s, "tor", NewSharedBuffer(9<<20, 1.0))
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		addr := packet.MakeAddr(10, 0, 0, byte(i+1))
		h := NewHost(s, "h", addr)
		h.NIC = NewLink(s, "up", 10e9, sim.Microsecond, sw)
		down := NewLink(s, "down", 10e9, sim.Microsecond, h)
		port := sw.AddPort(down, red)
		sw.AddRoute(addr, port)
		hosts[i] = h
	}
	return sw, hosts
}

type sink struct{ got []*packet.Packet }

func (k *sink) HandlePacket(p *packet.Packet) { k.got = append(k.got, p) }

func TestSwitchRouting(t *testing.T) {
	s := sim.New(1)
	sw, hosts := buildStar(t, s, 3, REDConfig{})
	k0, k2 := &sink{}, &sink{}
	hosts[0].Demux = k0
	hosts[2].Demux = k2
	p := mkPktTo(hosts[2].Addr, packet.ECT0, 100)
	hosts[0].Output(p)
	s.RunAll()
	if len(k2.got) != 1 || len(k0.got) != 0 {
		t.Fatalf("routing failed: h2=%d h0=%d", len(k2.got), len(k0.got))
	}
	if sw.Stats.Forwarded != 1 {
		t.Fatalf("forwarded = %d", sw.Stats.Forwarded)
	}
	if k2.got[0].Hops != 1 {
		t.Fatalf("hops = %d", k2.got[0].Hops)
	}
	if ttl := k2.got[0].IP()[8]; ttl != 63 {
		t.Fatalf("TTL = %d", ttl)
	}
}

func TestSwitchNoRoute(t *testing.T) {
	s := sim.New(1)
	sw, hosts := buildStar(t, s, 2, REDConfig{})
	hosts[0].Output(mkPktTo(packet.MakeAddr(99, 9, 9, 9), packet.ECT0, 10))
	s.RunAll()
	if sw.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d", sw.Stats.NoRoute)
	}
}

func TestSwitchDropRate(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "x", nil)
	l := NewLink(s, "p", 1e9, 0, &sink{})
	sw.AddPort(l, REDConfig{})
	l.Stats.Drops = 1
	l.Stats.SentPackets = 3
	if got := sw.DropRate(); got != 0.25 {
		t.Fatalf("drop rate = %v", got)
	}
}

func TestHostHooks(t *testing.T) {
	s := sim.New(1)
	_, hosts := buildStar(t, s, 2, REDConfig{})
	k := &sink{}
	hosts[1].Demux = k

	var egressSeen, ingressSeen int
	hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		egressSeen++
		return p, nil
	}
	hosts[1].Ingress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		ingressSeen++
		return p, nil
	}
	hosts[0].Output(mkPktTo(hosts[1].Addr, packet.ECT0, 10))
	s.RunAll()
	if egressSeen != 1 || ingressSeen != 1 || len(k.got) != 1 {
		t.Fatalf("hooks: egress=%d ingress=%d delivered=%d", egressSeen, ingressSeen, len(k.got))
	}
}

func TestHostHookDropAndMultiply(t *testing.T) {
	s := sim.New(1)
	_, hosts := buildStar(t, s, 2, REDConfig{})
	k := &sink{}
	hosts[1].Demux = k

	// Egress hook that duplicates every packet (FACK-style).
	hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		return p, p.Clone()
	}
	hosts[0].Output(mkPktTo(hosts[1].Addr, packet.ECT0, 10))
	s.RunAll()
	if len(k.got) != 2 {
		t.Fatalf("duplication: delivered=%d", len(k.got))
	}

	// Ingress hook that drops everything (policing).
	k.got = nil
	hosts[1].Ingress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) { return nil, nil }
	hosts[0].Output(mkPktTo(hosts[1].Addr, packet.ECT0, 10))
	s.RunAll()
	if len(k.got) != 0 || hosts[1].IngressDropped != 2 {
		t.Fatalf("policing: delivered=%d dropped=%d", len(k.got), hosts[1].IngressDropped)
	}
}

func TestDeliverLocalBypassesIngress(t *testing.T) {
	s := sim.New(1)
	_, hosts := buildStar(t, s, 2, REDConfig{})
	k := &sink{}
	hosts[0].Demux = k
	hosts[0].Ingress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) { return nil, nil }
	hosts[0].DeliverLocal(mkPkt(0))
	if len(k.got) != 1 {
		t.Fatal("DeliverLocal did not bypass ingress hook")
	}
}

func TestCongestedPortBuildsQueueAndMarks(t *testing.T) {
	// Two senders blast one receiver at 10G each over a 10G egress: the
	// egress queue must grow to the mark threshold and CE-mark ECT packets.
	s := sim.New(1)
	red := REDConfig{MarkThresholdBytes: 80_000}
	sw, hosts := buildStar(t, s, 3, red)
	k := &sink{}
	hosts[2].Demux = k
	var offered int
	var offer func()
	offer = func() {
		if s.Now() >= 5*sim.Millisecond {
			return
		}
		hosts[0].Output(mkPktTo(hosts[2].Addr, packet.ECT0, 8948))
		hosts[1].Output(mkPktTo(hosts[2].Addr, packet.ECT0, 8948))
		offered += 2
		s.Schedule(7200*sim.Nanosecond, offer) // each sender ~10G offered
	}
	s.Schedule(0, offer)
	s.Run(6 * sim.Millisecond)
	down := sw.Port(2)
	if down.Stats.Marks == 0 {
		t.Fatal("no CE marks under 2:1 overload")
	}
	if down.Stats.MaxQueueBytes < red.MarkThresholdBytes {
		t.Fatalf("max queue %d below threshold", down.Stats.MaxQueueBytes)
	}
	var marked int
	for _, p := range k.got {
		if p.IP().ECN() == packet.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no CE-marked packets delivered")
	}
}

func TestAvgQueueAndUtilization(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 0, c)
	l.Send(mkPkt(1000))
	s.RunAll()
	if l.AvgQueueBytes() <= 0 {
		t.Fatal("avg queue should be positive after traffic")
	}
	if u := l.Utilization(); u <= 0 || u > 1.0001 {
		t.Fatalf("utilization = %v", u)
	}
}

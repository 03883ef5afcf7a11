package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// mkPoolPkt draws a packet from the pool so lifecycle tests can balance
// Gets against Puts.
func mkPoolPkt(pool *packet.Pool, payload int) *packet.Packet {
	return packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
		packet.ECT0, packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK, Window: 100}, payload)
}

// TestLinkDownDrainsQueueWithAccounting pins Down()'s contract: the pending
// tx timer is cancelled, every queued packet is discarded with DropsDown
// accounting, shared-buffer bytes are released, TSQ credit flows through
// OnTxDone, and ownership returns to the pool.
func TestLinkDownDrainsQueueWithAccounting(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	buf := NewSharedBuffer(1<<20, 1.0)
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 10*sim.Microsecond, c)
	l.Policy = &PortQueue{Buffer: buf}
	l.Pool = pool
	var txDone int
	l.OnTxDone = func(p *packet.Packet) { txDone++ }

	const n = 5
	for i := 0; i < n; i++ {
		if !l.Send(mkPoolPkt(pool, 1000)) {
			t.Fatalf("send %d refused on a healthy link", i)
		}
	}
	if buf.Used() == 0 {
		t.Fatal("shared buffer untouched by enqueue")
	}
	putsBefore := pool.Puts
	l.Down()
	if !l.IsDown() {
		t.Fatal("IsDown false after Down")
	}
	if l.QueueLen() != 0 || l.QueueBytes() != 0 {
		t.Fatalf("queue not drained: len=%d bytes=%d", l.QueueLen(), l.QueueBytes())
	}
	if l.Stats.DropsDown != n {
		t.Fatalf("DropsDown = %d, want %d", l.Stats.DropsDown, n)
	}
	if buf.Used() != 0 {
		t.Fatalf("shared buffer holds %dB after Down", buf.Used())
	}
	if txDone != n {
		t.Fatalf("OnTxDone credited %d packets, want %d (TSQ budget leak)", txDone, n)
	}
	if pool.Puts != putsBefore+n {
		t.Fatalf("pool puts %d -> %d, want +%d (packet ownership leak)", putsBefore, pool.Puts, n)
	}
	if l.Stats.DownEvents != 1 {
		t.Fatalf("DownEvents = %d", l.Stats.DownEvents)
	}

	// Sends while down are refused and counted; the caller keeps ownership.
	p := mkPoolPkt(pool, 100)
	if l.Send(p) {
		t.Fatal("Send succeeded on a down link")
	}
	pool.Put(p)
	if l.Stats.DropsDown != n+1 {
		t.Fatalf("DropsDown = %d after refused send, want %d", l.Stats.DropsDown, n+1)
	}

	// No stray tx event may fire after the drain.
	s.RunAll()
	if len(c.pkts) != 0 {
		t.Fatalf("%d packets delivered from a drained link", len(c.pkts))
	}

	l.Up()
	if l.IsDown() || l.Stats.UpEvents != 1 {
		t.Fatalf("Up failed: down=%v ups=%d", l.IsDown(), l.Stats.UpEvents)
	}
	if !l.Send(mkPoolPkt(pool, 1000)) {
		t.Fatal("send refused after Up")
	}
	s.RunAll()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d after recovery, want 1", len(c.pkts))
	}
}

// TestLinkDownLeavesWireInFlight: a packet that finished serialization is on
// the wire; taking the link down must not claw it back.
func TestLinkDownLeavesWireInFlight(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 100*sim.Microsecond, c)
	l.Pool = pool
	l.Send(mkPoolPkt(pool, 1000)) // tx takes 8.24us at 1Gbps
	s.Run(50 * sim.Microsecond)   // past serialization, mid-propagation
	l.Down()
	s.RunAll()
	if len(c.pkts) != 1 {
		t.Fatalf("in-flight packet lost: delivered %d", len(c.pkts))
	}
	if l.Stats.DropsDown != 0 {
		t.Fatalf("DropsDown = %d for an empty queue", l.Stats.DropsDown)
	}
}

// TestLinkDownUpIdempotent: repeated transitions in the same direction are
// no-ops — the event counters see each edge once.
func TestLinkDownUpIdempotent(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, "t", 1e9, 0, &sink{})
	l.Pool = packet.NewPool()
	l.Down()
	l.Down()
	l.Up()
	l.Up()
	if l.Stats.DownEvents != 1 || l.Stats.UpEvents != 1 {
		t.Fatalf("events down=%d up=%d, want 1/1", l.Stats.DownEvents, l.Stats.UpEvents)
	}
}

// TestLinkFlapPoolBalance runs repeated down/up cycles under traffic and
// checks that every pooled packet the link consumed was returned: the pool's
// Gets equal its Puts once the run drains.
func TestLinkFlapPoolBalance(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	c := &collector{s: s}
	l := NewLink(s, "t", 1e9, 5*sim.Microsecond, c)
	l.Pool = pool
	delivered := 0
	refused := 0
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 8; i++ {
			p := mkPoolPkt(pool, 500)
			if !l.Send(p) {
				pool.Put(p)
				refused++
			}
		}
		s.RunFor(2 * sim.Microsecond)
		l.Down()
		s.RunFor(2 * sim.Microsecond)
		l.Up()
	}
	s.RunAll()
	delivered = len(c.pkts)
	for _, p := range c.pkts {
		pool.Put(p)
	}
	if pool.Gets != pool.Puts {
		t.Fatalf("pool imbalance after flaps: gets=%d puts=%d (delivered=%d refused=%d dropsDown=%d)",
			pool.Gets, pool.Puts, delivered, refused, l.Stats.DropsDown)
	}
	if l.Stats.DownEvents != 10 || l.Stats.UpEvents != 10 {
		t.Fatalf("flap events down=%d up=%d, want 10/10", l.Stats.DownEvents, l.Stats.UpEvents)
	}
	if l.Stats.DropsDown == 0 {
		t.Fatal("flap cycles never caught a queued packet — test lost its teeth")
	}
}

// TestLinkDeliversOnePacketPerEvent pins the event cost of a hop and the
// delivery contract on the one case where packets share a delivery instant:
// a link so fast that TxTime rounds to zero. A link whose departures run no
// code (no OnTxDone, no fault hook: a switch egress port) fires one event
// per packet; a NIC fires two, its completion and its delivery. Either way
// each packet arrives in send order, at SentAt+Delay, by its own firing.
func TestLinkDeliversOnePacketPerEvent(t *testing.T) {
	const delay, n = 10 * sim.Microsecond, 5
	for _, nic := range []bool{false, true} {
		s := sim.New(1)
		var log []string
		var pending []int
		c := &collector{s: s}
		c.onPkt = func() {
			log = append(log, fmt.Sprintf("pkt%d", len(c.pkts)))
			pending = append(pending, s.Pending())
		}
		l := NewLink(s, "t", 1e15, delay, c)
		if tx := l.TxTime(mkPkt(1000).WireLen()); tx != 0 {
			t.Fatalf("TxTime = %v, want 0: the test needs simultaneous deliveries", tx)
		}
		if nic {
			// The second packet's tx completion comes after the first one's
			// delivery is scheduled and before its own: an event it
			// schedules for the same instant sits between the two.
			txDone := 0
			l.OnTxDone = func(*packet.Packet) {
				if txDone++; txDone == 2 {
					s.ScheduleFunc(delay, func() { log = append(log, "between") })
				}
			}
		}
		sent := make([]*packet.Packet, n)
		for i := range sent {
			sent[i] = mkPkt(1000)
			l.Send(sent[i])
		}
		s.RunAll()

		want, perPkt := "[pkt1 pkt2 pkt3 pkt4 pkt5]", uint64(1)
		wantPending := "[1 1 1 1 0]" // the next delivery, armed before the handler runs
		if nic {
			want, perPkt = "[pkt1 between pkt2 pkt3 pkt4 pkt5]", 2
			wantPending = "[5 3 2 1 0]" // the marker and the remaining deliveries
		}
		if got := fmt.Sprint(log); got != want {
			t.Fatalf("nic=%v: delivery order %s, want %s", nic, got, want)
		}
		events := perPkt * n
		if nic {
			events++ // the marker
		}
		if s.Processed != events {
			t.Fatalf("nic=%v: %d events for %d packets, want %d per packet", nic, s.Processed, n, perPkt)
		}
		for i, p := range c.pkts {
			if p != sent[i] {
				t.Fatalf("nic=%v: packets delivered out of send order", nic)
			}
			if want := sim.Time(p.SentAt) + delay; c.times[i] != want || p.SentAt != 0 {
				t.Fatalf("nic=%v: packet %d sent at %d, delivered at %v, want %v", nic, i+1, p.SentAt, c.times[i], want)
			}
		}
		// A drain would have handed over several packets in one event.
		if fmt.Sprint(pending) != wantPending {
			t.Fatalf("nic=%v: pending events at each delivery %v, want %v", nic, pending, wantPending)
		}
	}
}

// refLink is the link as it was before departures were fixed at enqueue, kept
// as the reference the fold is checked against: a completion event per
// packet, at which its buffer bytes are released and a delivery event per
// packet is scheduled. admit is the port's WRED marking and Dynamic
// Threshold admission on the queue as it stands.
type refLink struct {
	s             *sim.Simulator
	rate          int64
	delay         sim.Duration
	buf           *SharedBuffer
	markAt        int
	deliver       func(*packet.Packet)
	queue, flight []*packet.Packet
	queueBytes    int
	busy, down    bool
	txEv          *sim.Event
}

func (l *refLink) send(p *packet.Packet) bool {
	if l.down {
		return false
	}
	if l.queueBytes >= l.markAt {
		p.IP().SetECN(packet.CE)
	}
	if !l.buf.Admit(l.queueBytes, p.WireLen()) {
		return false
	}
	l.queue = append(l.queue, p)
	l.queueBytes += p.WireLen()
	if !l.busy {
		l.startNext()
	}
	return true
}

func (l *refLink) startNext() {
	if len(l.queue) == 0 {
		l.busy, l.txEv = false, nil
		return
	}
	l.busy = true
	tx := sim.Duration(int64(l.queue[0].WireLen()) * 8 * int64(sim.Second) / l.rate)
	l.txEv = l.s.Schedule(tx, l.txDone)
}

func (l *refLink) txDone() {
	l.txEv = nil
	p := l.queue[0]
	l.queue = l.queue[1:]
	l.queueBytes -= p.WireLen()
	l.buf.Release(p.WireLen())
	l.flight = append(l.flight, p)
	l.s.ScheduleFunc(l.delay, func() {
		q := l.flight[0]
		l.flight = l.flight[1:]
		l.deliver(q)
	})
	l.startNext()
}

func (l *refLink) setDown(down bool) {
	if l.down = down; !down {
		return
	}
	l.s.Cancel(l.txEv)
	l.txEv, l.busy = nil, false
	for _, p := range l.queue {
		l.queueBytes -= p.WireLen()
		l.buf.Release(p.WireLen())
	}
	l.queue = nil
}

// arrival is what a port did with one offered packet, in either model.
type arrival struct {
	accepted         bool
	portBytes, usedB int
}

// delivery is one packet leaving a port: when, which, and whether it was
// marked.
type delivery struct {
	at sim.Time
	id uint16
	ce bool
}

// TestLinkMatchesTwoEventReference feeds the same seeded traffic through a
// 3-port shared-buffer switch built on Link and through the same switch
// built on refLink, with ports going down and up. No arrival ties a
// departure, so the two must agree exactly: every arrival's admission (DT
// refusals included), the port's queue and the pool's occupancy right after
// it, and every delivery's time, packet and CE mark.
func TestLinkMatchesTwoEventReference(t *testing.T) {
	const (
		ports   = 3
		rate    = 1e9
		delay   = 3 * sim.Microsecond
		markAt  = 6000
		pool    = 24_000
		packets = 4000
	)
	dst := func(i int) packet.Addr { return packet.MakeAddr(10, 0, 1, byte(i)) }

	s := sim.New(1)
	sw := NewSwitch(s, "sw", NewSharedBuffer(pool, 1.0))
	got := make([][]delivery, ports)
	for i := 0; i < ports; i++ {
		i := i
		l := NewLink(s, fmt.Sprint("p", i), rate, delay, HandlerFunc(func(p *packet.Packet) {
			got[i] = append(got[i], delivery{s.Now(), p.IP().TCP().SrcPort(), p.IP().ECN() == packet.CE})
		}))
		sw.AddRoute(dst(i), sw.AddPort(l, REDConfig{MarkThresholdBytes: markAt}))
	}

	rs := sim.New(1)
	rbuf := NewSharedBuffer(pool, 1.0)
	want := make([][]delivery, ports)
	ref := make([]*refLink, ports)
	for i := range ref {
		i := i
		ref[i] = &refLink{s: rs, rate: rate, delay: delay, buf: rbuf, markAt: markAt,
			deliver: func(p *packet.Packet) {
				want[i] = append(want[i], delivery{rs.Now(), p.IP().TCP().SrcPort(), p.IP().ECN() == packet.CE})
			}}
	}

	// The arrival process: each arrival picks the next one's time, moving it
	// off every departure either model has fixed by then.
	rng := rand.New(rand.NewSource(7))
	due := func(at sim.Time) bool {
		for i := 0; i < ports; i++ {
			l := sw.Port(i)
			for q := l.qhead; q != nil; q = q.Next() {
				if sim.Time(q.SentAt) == at {
					return true
				}
			}
		}
		return false
	}
	var refused, downs int
	var step func(n int)
	step = func(n int) {
		if n == packets {
			return
		}
		i := rng.Intn(ports)
		rs.Run(s.Now())
		if n%150 == 149 {
			// A port flaps instead of a packet arriving.
			down := !ref[i].down
			ref[i].setDown(down)
			if down {
				sw.Port(i).Down()
				downs++
			} else {
				sw.Port(i).Up()
			}
		} else {
			size := 40 + rng.Intn(1460)
			mk := func() *packet.Packet {
				return packet.Build(packet.MakeAddr(10, 0, 0, 1), dst(i), packet.ECT0,
					packet.TCPFields{SrcPort: uint16(n), DstPort: 80, Flags: packet.FlagACK}, size)
			}
			drops := sw.Port(i).Stats.Drops
			sw.HandlePacket(mk())
			r := arrival{ref[i].send(mk()), ref[i].queueBytes, rbuf.used}
			g := arrival{sw.Port(i).Stats.Drops == drops && !sw.Port(i).IsDown(), sw.Port(i).QueueBytes(), sw.Buffer.Used()}
			if g != r {
				t.Fatalf("arrival %d at %v on port %d: link %+v, reference %+v", n, s.Now(), i, g, r)
			}
			if !r.accepted && !ref[i].down {
				refused++
			}
		}
		at := s.Now() + sim.Duration(1+rng.Intn(2400))
		for due(at) {
			at++
		}
		s.At(at, func() { step(n + 1) })
	}
	s.At(0, func() { step(0) })
	s.RunAll()
	rs.RunAll()

	for i := 0; i < ports; i++ {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			for k := range got[i] {
				if k >= len(want[i]) || got[i][k] != want[i][k] {
					t.Fatalf("port %d delivery %d: link %+v, reference %+v", i, k, got[i][k], want[i][min(k, len(want[i])-1)])
				}
			}
			t.Fatalf("port %d: link delivered %d packets, reference %d", i, len(got[i]), len(want[i]))
		}
	}
	if err := sw.Buffer.checkConservation(); err != nil || sw.Buffer.Used() != 0 {
		t.Fatalf("drained pool holds %d B (%v)", sw.Buffer.Used(), err)
	}
	var marks int64
	for i := 0; i < ports; i++ {
		marks += sw.Port(i).Stats.Marks
	}
	if refused == 0 || downs == 0 || marks == 0 {
		t.Fatalf("the traffic lost its teeth: %d DT refusals, %d downs, %d marks", refused, downs, marks)
	}
}

// TestLinkDepartureSettlesBeforeArrival pins the tie rule: a packet that
// arrives at the nanosecond another departs finds the departed one gone from
// the queue it is marked against, from its port's queue and from the pool.
func TestLinkDepartureSettlesBeforeArrival(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", NewSharedBuffer(1<<20, 1.0))
	c := &collector{s: s}
	l := NewLink(s, "p0", 1e9, sim.Microsecond, c)
	dst := packet.MakeAddr(10, 0, 0, 2)
	sw.AddRoute(dst, sw.AddPort(l, REDConfig{MarkThresholdBytes: 1})) // mark behind any queued byte
	first := mkPktTo(dst, packet.ECT0, 1000)
	tx := l.TxTime(first.WireLen())
	second := mkPktTo(dst, packet.ECT0, 1000)
	// The arrival is scheduled before the first packet is even sent, so in
	// (when, seq) order it precedes anything the link schedules for tx.
	s.At(tx, func() {
		if used := sw.Buffer.used; used != first.WireLen() {
			t.Fatalf("before the arrival the pool holds %d B, want the unsettled %d", used, first.WireLen())
		}
		sw.HandlePacket(second)
		if q := l.QueueBytes(); q != second.WireLen() {
			t.Fatalf("queue after the tied arrival %d B, want only the new packet's %d", q, second.WireLen())
		}
		if l.Stats.SentPackets != 1 || sw.Buffer.Used() != second.WireLen() {
			t.Fatalf("departure not settled: sent %d, pool %d B", l.Stats.SentPackets, sw.Buffer.Used())
		}
	})
	sw.HandlePacket(first)
	s.RunAll()
	if len(c.pkts) != 2 || c.pkts[1] != second {
		t.Fatalf("delivered %d packets", len(c.pkts))
	}
	if second.IP().ECN() != packet.ECT0 || l.Stats.Marks != 0 {
		t.Fatal("the tied arrival was marked against a packet that had departed")
	}
	if want := 2*tx + sim.Microsecond; c.times[1] != want {
		t.Fatalf("second delivered at %v, want %v", c.times[1], want)
	}
}

// TestLinkSetFaultWhileQueued swaps a link's fault hook on and off while
// packets are queued and in flight: every packet is delivered once (twice
// where the hook duplicates it), in order within each mode, at SentAt+Delay
// plus the hook's extra delay when it departed under the hook; the
// accounting balances and no event is left behind.
func TestLinkSetFaultWhileQueued(t *testing.T) {
	const delay, extra = 5 * sim.Microsecond, 700 * sim.Nanosecond
	s := sim.New(1)
	pl := packet.NewPool()
	c := &collector{s: s}
	l := NewLink(s, "t", 10e9, delay, c)
	l.Pool = pl
	hook := func(l *Link, p *packet.Packet, deliver func(*packet.Packet, sim.Duration)) {
		if p.IP().TCP().SrcPort()%4 == 0 {
			deliver(p.Clone(), extra)
		}
		deliver(p, extra)
	}
	hooked := map[*packet.Packet]bool{}
	sent := 0
	send := func() {
		p := packet.BuildIn(pl, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2), packet.ECT0,
			packet.TCPFields{SrcPort: uint16(sent), DstPort: 80, Flags: packet.FlagACK}, 1000)
		sent++
		l.Send(p)
	}
	// Bursts of 12 every 20 µs queue ~10 µs behind the serializer;
	// each swap lands mid-burst, with packets queued and in flight.
	for b := 0; b < 8; b++ {
		s.At(sim.Duration(b)*20*sim.Microsecond, func() {
			for i := 0; i < 12; i++ {
				send()
			}
		})
		s.At(sim.Duration(b)*20*sim.Microsecond+4100*sim.Nanosecond, func() {
			if l.QueueLen() < 2 || l.nFlight+l.faultPending == 0 {
				t.Fatalf("swap at %v with %d queued, %d in flight: the test lost its teeth", s.Now(), l.QueueLen(), l.nFlight)
			}
			if l.Fault() == nil {
				l.SetFault(hook)
			} else {
				l.SetFault(nil)
			}
		})
	}
	var last [2]sim.Time
	check := l.Dst
	l.Dst = HandlerFunc(func(p *packet.Packet) {
		check.HandlePacket(p)
		under := s.Now() == sim.Time(p.SentAt)+delay+extra
		if !under && s.Now() != sim.Time(p.SentAt)+delay {
			t.Fatalf("packet delivered at %v, sent at %d", s.Now(), p.SentAt)
		}
		mode := 0
		if under {
			mode = 1
			hooked[p] = true
		}
		if s.Now() < last[mode] {
			t.Fatalf("delivery at %v after one at %v in the same mode", s.Now(), last[mode])
		}
		last[mode] = s.Now()
		if err := l.checkConservation(); err != nil {
			t.Fatal(err)
		}
	})
	s.RunAll()
	if s.Pending() != 0 {
		t.Fatalf("%d events left after the drain", s.Pending())
	}
	if len(hooked) == 0 || len(hooked) == len(c.pkts) {
		t.Fatalf("%d of %d deliveries under the hook: the swaps did not split the run", len(hooked), len(c.pkts))
	}
	if int64(len(c.pkts)) != int64(sent)+l.dups || l.Stats.SentPackets != int64(sent) {
		t.Fatalf("sent %d, departed %d, delivered %d with %d duplicates", sent, l.Stats.SentPackets, len(c.pkts), l.dups)
	}
	for _, p := range c.pkts {
		pl.Put(p)
	}
	if err := CheckConservation([]*Link{l}, nil, pl, 0); err != nil {
		t.Fatal(err)
	}
}

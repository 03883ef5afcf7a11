package netsim

import (
	"fmt"
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

// TestLinkDeliversOnePacketPerEvent pins deliverHead's contract on the one
// case where two packets share a delivery instant: a link so fast that TxTime
// rounds to zero. Each packet must arrive in send order, at SentAt+Delay, by
// its own event — so an event scheduled between their transmissions runs
// between their deliveries, not after a drain of both.
func TestLinkDeliversOnePacketPerEvent(t *testing.T) {
	s := sim.New(1)
	const delay = 10 * sim.Microsecond
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
	// The second packet's tx completion comes after the first one's delivery
	// is scheduled and before its own: an event it schedules for the same
	// instant sits between the two deliveries.
	txDone := 0
	l.OnTxDone = func(*packet.Packet) {
		if txDone++; txDone == 2 {
			s.ScheduleFunc(delay, func() { log = append(log, "between") })
		}
	}
	a, b := mkPkt(1000), mkPkt(1000)
	l.Send(a)
	l.Send(b)
	s.RunAll()

	if got := fmt.Sprint(log); got != "[pkt1 between pkt2]" {
		t.Fatalf("delivery order %s, want [pkt1 between pkt2]", got)
	}
	if c.pkts[0] != a || c.pkts[1] != b {
		t.Fatal("packets delivered out of send order")
	}
	for i, p := range c.pkts {
		if want := sim.Time(p.SentAt) + sim.Time(delay); c.times[i] != want || p.SentAt != 0 {
			t.Fatalf("packet %d sent at %d, delivered at %v, want %v", i+1, p.SentAt, c.times[i], want)
		}
	}
	// Still queued when the first packet arrives: the marker and the second
	// delivery. A drain would have handed over both packets in one event.
	if fmt.Sprint(pending) != "[2 0]" {
		t.Fatalf("pending events at each delivery %v, want [2 0]", pending)
	}
}

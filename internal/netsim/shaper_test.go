package netsim

import (
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

func TestShaperEnforcesRate(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	sh := NewShaper(s, 1e9, 10_000, c) // 1 Gbps
	// Offer 2 Gbps for 10 ms.
	var offer func()
	offer = func() {
		if s.Now() >= 10*sim.Millisecond {
			return
		}
		sh.HandlePacket(mkPkt(1000))
		s.Schedule(4*sim.Microsecond, offer) // ~2 Gbps offered
	}
	s.Schedule(0, offer)
	s.Run(12 * sim.Millisecond)
	gotBits := 0
	for _, p := range c.pkts {
		gotBits += p.WireLen() * 8
	}
	rate := float64(gotBits) / 0.012
	if rate > 1.15e9 {
		t.Fatalf("shaped rate %.2f Gbps exceeds 1 Gbps", rate/1e9)
	}
	if rate < 0.8e9 {
		t.Fatalf("shaped rate %.2f Gbps too low (work-conserving?)", rate/1e9)
	}
	if sh.QueueBytes() == 0 && len(sh.queue) == 0 && s.Pending() == 0 {
		// fine: drained after offering stopped
		_ = sh
	}
}

func TestShaperPassesUnderRate(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	sh := NewShaper(s, 10e9, 100_000, c)
	// Offer well under rate: every packet should pass with ~no delay.
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(sim.Duration(i)*100*sim.Microsecond, func() {
			sh.HandlePacket(mkPkt(1000))
		})
	}
	s.RunAll()
	if len(c.pkts) != 5 {
		t.Fatalf("delivered %d", len(c.pkts))
	}
	for i, at := range c.times {
		want := sim.Duration(i) * 100 * sim.Microsecond
		if at-want > sim.Microsecond {
			t.Fatalf("packet %d delayed %v", i, at-want)
		}
	}
}

func TestShaperBurstAllowance(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	sh := NewShaper(s, 1e6, 5000, c) // slow rate, 5KB bucket
	// An instantaneous burst within the bucket passes immediately.
	for i := 0; i < 4; i++ {
		sh.HandlePacket(mkPkt(1000))
	}
	if len(c.pkts) != 4 {
		t.Fatalf("burst not passed: %d", len(c.pkts))
	}
	// The next packet waits for tokens.
	sh.HandlePacket(mkPkt(1000))
	if len(c.pkts) != 4 {
		t.Fatal("over-burst packet passed immediately")
	}
	s.RunAll()
	if len(c.pkts) != 5 {
		t.Fatalf("queued packet never released: %d", len(c.pkts))
	}
}

func TestShaperDropsBeyondQueueLimit(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	sh := NewShaper(s, 1e6, 1000, c)
	sh.MaxQueueBytes = 3000
	for i := 0; i < 20; i++ {
		sh.HandlePacket(mkPkt(1000))
	}
	if sh.Dropped == 0 {
		t.Fatal("no drops beyond queue limit")
	}
	if sh.QueueBytes() > 3000 {
		t.Fatalf("queue %d beyond limit", sh.QueueBytes())
	}
}

// TestShaperLongHorizonRateConformance is the regression test for the
// float64 credit-accrual drift: the old refill accumulated Rate/8·dt.Seconds()
// per call, and over soak-length horizons (millions of refills at an odd rate)
// the per-refill rounding compounded into a measurable rate error. The integer
// bit-nanosecond carry cannot drift by even one bit, so a saturated shaper
// must deliver Rate·horizon bits to within one packet. The rate is chosen so
// neither bits-per-nanosecond nor the per-packet wait divides evenly —
// worst case for any floating-point path.
func TestShaperLongHorizonRateConformance(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	const rate = 997_000_001 // ~1 Gbps, prime-ish: maximal rounding pressure
	sh := NewShaper(s, rate, 10_000, c)
	// Keep the shaper saturated edge-triggered: top the backlog back up at
	// every release instead of polling on a timer, so the queue never runs
	// dry and every refill interval is the shaper's own (irregular) choice.
	pkt := 1000
	c.onPkt = func() {
		for sh.QueueBytes() < 4*pkt {
			sh.HandlePacket(mkPkt(pkt - 40)) // mkPkt adds 40B of headers
		}
	}
	c.onPkt()
	const horizon = 15 * sim.Second // ~1.9M releases/refills at this rate
	s.Run(horizon)
	gotBits := int64(0)
	for _, p := range c.pkts {
		gotBits += int64(p.WireLen()) * 8
	}
	wantBits := int64(float64(rate) * horizon.Seconds())
	// The bucket starts full, so up to one Burst of credit rides on top of
	// the accrued rate; beyond that, any surplus or deficit larger than one
	// packet is genuine accrual drift.
	gotBits -= int64(sh.Burst) * 8
	if diff := gotBits - wantBits; diff > int64(pkt*8) || diff < -int64(pkt*8) {
		t.Fatalf("delivered %d bits over %v at %d bit/s, want %d (drift %d bits = %.1f packets)",
			gotBits, horizon, int64(rate), wantBits, diff, float64(diff)/float64(pkt*8))
	}
}

// TestShaperIdleRefillClampedToBurst: credit accrual across an arbitrarily
// long idle gap must saturate at the bucket depth — an hour of idling buys
// exactly one Burst of instantaneous credit, not an hour's worth.
func TestShaperIdleRefillClampedToBurst(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	sh := NewShaper(s, 1e6, 5000, c)     // 1 Mbps, 5 KB bucket
	payload := 1000 - mkPkt(0).WireLen() // 1000-byte frames
	// Spend the bucket, then idle for an hour of virtual time.
	for i := 0; i < 5; i++ {
		sh.HandlePacket(mkPkt(payload))
	}
	s.Run(sim.Duration(3600) * sim.Second)
	before := len(c.pkts)
	for i := 0; i < 10; i++ {
		sh.HandlePacket(mkPkt(payload))
	}
	if passed := len(c.pkts) - before; before != 5 || passed != 5 {
		t.Fatalf("idle shaper passed %d KB instantly (%d before the idle), want exactly the 5 KB burst", passed, before)
	}
}

// TestShaperPooledOverflowReturnsPackets: a packet dropped at MaxQueueBytes
// goes back to the pool, so once the backlog drains every packet taken from
// the pool has been returned — by the sink or by the shaper.
func TestShaperPooledOverflowReturnsPackets(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	sh := NewShaper(s, 1e6, 1000, HandlerFunc(pool.Put))
	sh.MaxQueueBytes = 3000
	sh.Pool = pool
	for i := 0; i < 20; i++ {
		sh.HandlePacket(packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
			packet.ECT0, packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK}, 1000))
	}
	s.RunAll()
	if sh.Dropped == 0 {
		t.Fatal("no drops beyond queue limit: the overflow path was not exercised")
	}
	if pool.Gets != pool.Puts {
		t.Fatalf("pool Gets %d, Puts %d: %d packets dropped at the queue bound were never returned",
			pool.Gets, pool.Puts, pool.Gets-pool.Puts)
	}
}

func TestShaperFIFO(t *testing.T) {
	s := sim.New(1)
	c := &collector{s: s}
	sh := NewShaper(s, 1e6, 100, c)
	p1, p2 := mkPkt(500), mkPkt(200)
	sh.HandlePacket(p1)
	sh.HandlePacket(p2)
	s.RunAll()
	if len(c.pkts) != 2 || c.pkts[0] != p1 || c.pkts[1] != p2 {
		t.Fatal("shaper reordered packets")
	}
}

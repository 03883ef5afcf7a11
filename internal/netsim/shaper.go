package netsim

import (
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// Shaper is a token-bucket rate limiter interposed on a path, modelling the
// NIC/switch rate limiters the paper's Figure 2 experiment uses ("CUBIC
// RL=2Gbps") and the §2.3 discussion of VM-level bandwidth allocation.
// Packets are released at Rate bits/sec with up to Burst bytes of credit;
// excess packets queue (the limiter's own buffer — exactly where CUBIC's
// RTT inflation comes from) up to MaxQueueBytes, then drop. All methods must
// run on the simulation goroutine.
type Shaper struct {
	Sim   *sim.Simulator
	Rate  int64 // bits per second
	Burst int   // bucket depth, bytes
	Dst   Handler

	// MaxQueueBytes bounds the backlog; 0 = unlimited.
	MaxQueueBytes int
	// Pool receives ownership of packets dropped at MaxQueueBytes; nil
	// leaves them to the garbage collector.
	Pool *packet.Pool

	// Stats.
	Shaped  int64 // packets released
	Dropped int64

	// tokens is the credit in bytes. It only ever holds multiples of ⅛
	// (whole bits), so the float64 representation is exact at any bucket
	// depth this simulator uses — see refill for why that matters.
	tokens     float64
	lastRefill sim.Time
	// carry is the sub-bit accrual remainder in bit-nanoseconds, so credit
	// earned between refills is exact over any horizon.
	carry      int64
	queue      []*packet.Packet
	queueBytes int
	pending    bool
}

// NewShaper creates a token-bucket shaper forwarding to dst.
func NewShaper(s *sim.Simulator, rate int64, burst int, dst Handler) *Shaper {
	return &Shaper{Sim: s, Rate: rate, Burst: burst, Dst: dst, tokens: float64(burst)}
}

// QueueBytes returns the current backlog.
func (sh *Shaper) QueueBytes() int { return sh.queueBytes }

// sendThreshold returns the credit required to release a packet needing
// `need` bytes: a full bucket always suffices (borrowing), so packets larger
// than the burst still drain at the configured rate instead of wedging.
func (sh *Shaper) sendThreshold(need float64) float64 {
	if b := float64(sh.Burst); need > b {
		return b
	}
	return need
}

// HandlePacket implements Handler: p goes on at once when the backlog is
// empty and credit covers it, queues behind the backlog otherwise, and is
// dropped to Pool when the backlog would exceed MaxQueueBytes.
func (sh *Shaper) HandlePacket(p *packet.Packet) {
	sh.refill()
	n := p.WireLen()
	if len(sh.queue) == 0 && sh.tokens >= sh.sendThreshold(float64(n)) {
		sh.tokens -= float64(n)
		sh.Shaped++
		sh.Dst.HandlePacket(p)
		return
	}
	if sh.MaxQueueBytes > 0 && sh.queueBytes+n > sh.MaxQueueBytes {
		sh.Dropped++
		sh.Pool.Put(p)
		return
	}
	sh.queue = append(sh.queue, p)
	sh.queueBytes += n
	sh.schedule()
}

const nsPerSec = int64(sim.Second)

func (sh *Shaper) refill() {
	now := sh.Sim.Now()
	dt := now - sh.lastRefill
	if dt <= 0 {
		return
	}
	sh.lastRefill = now
	if sh.Rate <= 0 {
		return
	}
	// Accrue credit in exact integer arithmetic: earned bits = Rate·dt/1e9
	// with the remainder carried in bit-nanoseconds. The former float64
	// accumulation (Rate/8 · dt.Seconds()) rounded every refill, and on
	// soak-length runs billions of refills let that rounding drift the
	// delivered rate away from Rate; the integer path cannot drift by even
	// one bit over any horizon. tokens then only ever moves in whole bits
	// (⅛-byte steps) and stays ≤ Burst, where float64 is exact.
	//
	// An idle gap longer than the bucket-fill time is clamped first — the
	// bucket is full either way (this is the idle clamp: credit never
	// exceeds Burst no matter how long the shaper sat idle) — which also
	// keeps Rate·dt far from int64 overflow; the carry resets with it.
	if fill := (int64(sh.Burst)*8*nsPerSec + sh.Rate - 1) / sh.Rate; int64(dt) > fill {
		dt = sim.Duration(fill)
		sh.carry = 0
	}
	total := sh.Rate*int64(dt) + sh.carry
	earnedBits := total / nsPerSec
	sh.carry = total - earnedBits*nsPerSec
	sh.tokens += float64(earnedBits) / 8
	if sh.tokens > float64(sh.Burst) {
		sh.tokens = float64(sh.Burst)
	}
}

func (sh *Shaper) schedule() {
	if sh.pending || len(sh.queue) == 0 {
		return
	}
	sh.pending = true
	deficit := sh.sendThreshold(float64(sh.queue[0].WireLen())) - sh.tokens
	var wait sim.Duration
	if deficit > 0 {
		wait = sim.Duration(deficit * 8 / float64(sh.Rate) * float64(sim.Second))
		if wait < 1 {
			wait = 1
		}
	}
	sh.Sim.Schedule(wait, sh.release)
}

func (sh *Shaper) release() {
	sh.pending = false
	sh.refill()
	for len(sh.queue) > 0 {
		p := sh.queue[0]
		need := float64(p.WireLen())
		if sh.tokens < sh.sendThreshold(need) {
			break
		}
		sh.tokens -= need // may go negative (borrowing); refill repays
		sh.queue[0] = nil // drop the reference: the backing array outlives the pop
		sh.queue = sh.queue[1:]
		sh.queueBytes -= p.WireLen()
		sh.Shaped++
		sh.Dst.HandlePacket(p)
	}
	sh.schedule()
}

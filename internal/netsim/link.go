// Package netsim is the network substrate: full-duplex links with
// store-and-forward serialization, output-queued switches with a shared
// dynamically-allocated buffer pool and WRED/ECN marking, and hosts with
// vSwitch hook points on their ingress and egress paths.
//
// It stands in for the paper's physical testbed (10GbE NICs, IBM G8264
// switches with 9MB shared buffers); see DESIGN.md §2 for the substitution
// argument.
package netsim

import (
	"fmt"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// Handler consumes packets delivered by a link.
type Handler interface {
	HandlePacket(p *packet.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *packet.Packet)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(p *packet.Packet) { f(p) }

// FaultHook intercepts a packet after it finishes serialization and before
// propagation. deliver hands a packet to the link's destination after the
// propagation delay plus extra; the hook may call it zero times (loss), once
// (passthrough, jitter, corruption in place), or several times (duplication
// — clones, so downstream mutation stays per-copy). A nil hook is the
// ordinary lossless link. internal/faults compiles fault profiles into this
// hook; it exists so chaos runs exercise the datapath's recovery paths
// without touching the switch/queue model.
type FaultHook func(l *Link, p *packet.Packet, deliver func(q *packet.Packet, extra sim.Duration))

// QueuePolicy lets a switch impose admission control and ECN marking on a
// link's queue. OnEnqueue runs before a packet is queued and may mutate it
// (set CE) or reject it (drop); OnDequeue runs when serialization of a packet
// completes and its buffer is released.
type QueuePolicy interface {
	OnEnqueue(l *Link, p *packet.Packet) bool
	OnDequeue(l *Link, p *packet.Packet)
}

// LinkStats counts link-level events. Drops are split by reason so fabric
// telemetry can tell queue pressure (Drops: admission/WRED rejects) from
// injected faults (DropsFault) from lifecycle loss (DropsDown: sends refused
// and queued packets discarded while the link is down).
type LinkStats struct {
	SentPackets    int64
	SentBytes      int64
	Drops          int64 // queue-policy rejects (overflow / WRED)
	DropsNonECT    int64 // drops of Not-ECT packets by the marking policy
	DropsFault     int64 // packets consumed by the fault hook (loss, gray failure)
	DropsDown      int64 // packets refused or discarded because the link was down
	Marks          int64 // CE marks applied by the policy
	DownEvents     int64 // Down() transitions
	UpEvents       int64 // Up() transitions
	MaxQueueBytes  int
	EnquedPackets  int64
	QueueByteTicks float64 // integral of queue bytes over time (for avg occupancy)
	lastChange     sim.Time
}

// Link is a simplex link: packets are serialized at Rate bits/sec, then
// propagate for Delay before delivery to Dst. A FIFO queue forms at the head;
// a QueuePolicy (set by switches) governs admission and marking.
type Link struct {
	Sim   *sim.Simulator
	Name  string
	Rate  int64 // bits per second
	Delay sim.Duration
	Dst   Handler

	// Policy is consulted on enqueue/dequeue; nil means unlimited FIFO.
	Policy QueuePolicy

	// Fault, when set, intercepts packets between serialization and
	// propagation (fault injection for chaos testing); nil is a clean wire.
	Fault FaultHook

	// OnTxDone, when set, is called as each packet finishes serialization
	// (the NIC tx-completion interrupt) — and for each queued packet a
	// Down() discards, because TSQ budget must be credited for packets
	// "dropped before the wire" exactly like tcpstack's host drop path.
	OnTxDone func(p *packet.Packet)

	// Pool, when set, receives ownership of packets the link discards
	// internally (the serialization queue cleared by Down). Without it those
	// packets leak from the free-list's perspective.
	Pool *packet.Pool

	Stats LinkStats

	// queue is the serialization FIFO and flight the propagation FIFO, both
	// rings: the serializer strictly drains head-first and (fault-free) every
	// packet propagates for the same Delay, so delivery order matches
	// completion order. Rings + the two bound callbacks below keep the
	// per-packet path free of closure allocations.
	queue      pktRing
	flight     pktRing
	queueBytes int
	busy       bool
	down       bool
	txEv       *sim.Event // pending tx completion; cancelled by Down

	txDoneF   func()
	deliverF  func()
	faultDelF func(q *packet.Packet, extra sim.Duration)
}

// NewLink creates a link with the given rate (bits/sec) and one-way
// propagation delay.
func NewLink(s *sim.Simulator, name string, rate int64, delay sim.Duration, dst Handler) *Link {
	l := &Link{Sim: s, Name: name, Rate: rate, Delay: delay, Dst: dst}
	l.txDoneF = l.txDone
	l.deliverF = l.deliverHead
	l.faultDelF = l.faultDeliver
	return l
}

// pktRing is a growable FIFO ring of packets. Its capacity is a power of two
// (16, then doubling), so an index wraps with a mask.
type pktRing struct {
	buf  []*packet.Packet
	head int
	n    int
}

func (r *pktRing) len() int { return r.n }

func (r *pktRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		grown := make([]*packet.Packet, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) peek() *packet.Packet { return r.buf[r.head] }

func (r *pktRing) pop() *packet.Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// QueueBytes returns the bytes currently queued (including the packet being
// serialized).
func (l *Link) QueueBytes() int { return l.queueBytes }

// QueueLen returns the number of queued packets (including in-flight).
func (l *Link) QueueLen() int { return l.queue.len() }

// TxTime returns the serialization time for n wire bytes.
func (l *Link) TxTime(n int) sim.Duration {
	return sim.Duration(int64(n) * 8 * int64(sim.Second) / l.Rate)
}

// Send offers a packet to the link. It returns false if the link is down or
// the queue policy dropped it (the packet is then owned by the caller).
func (l *Link) Send(p *packet.Packet) bool {
	if l.down {
		l.Stats.DropsDown++
		return false
	}
	if l.Policy != nil && !l.Policy.OnEnqueue(l, p) {
		l.Stats.Drops++
		if p.IP().ECN() == packet.NotECT {
			l.Stats.DropsNonECT++
		}
		return false
	}
	l.accumQueueTicks()
	p.EnqueuedAt = int64(l.Sim.Now())
	l.queue.push(p)
	l.queueBytes += p.WireLen()
	l.Stats.EnquedPackets++
	if l.queueBytes > l.Stats.MaxQueueBytes {
		l.Stats.MaxQueueBytes = l.queueBytes
	}
	if !l.busy {
		l.startNext()
	}
	return true
}

func (l *Link) startNext() {
	if l.queue.len() == 0 {
		l.busy = false
		l.txEv = nil
		return
	}
	l.busy = true
	tx := l.TxTime(l.queue.peek().WireLen())
	l.txEv = l.Sim.Schedule(tx, l.txDoneF)
}

// txDone completes serialization of the queue head (the serializer is
// strictly FIFO, so the head is always the packet whose tx timer fired).
func (l *Link) txDone() {
	l.txEv = nil // fired; never Cancel a consumed handle (it may be recycled)
	l.accumQueueTicks()
	p := l.queue.pop()
	l.queueBytes -= p.WireLen()
	l.Stats.SentPackets++
	l.Stats.SentBytes += int64(p.WireLen())
	if l.Policy != nil {
		l.Policy.OnDequeue(l, p)
	}
	if l.OnTxDone != nil {
		l.OnTxDone(p)
	}
	p.SentAt = int64(l.Sim.Now())
	if l.Fault != nil {
		l.Fault(l, p, l.faultDelF)
	} else {
		// Clean wire: constant Delay means delivery order == completion
		// order, so the flight ring plus one bound callback replaces the
		// per-packet closures.
		l.flight.push(p)
		l.Sim.ScheduleFunc(l.Delay, l.deliverF)
	}
	l.startNext()
}

// deliverHead hands the oldest in-flight packet to the destination: the
// callback is scheduled once per packet, so each firing delivers exactly one,
// at exactly SentAt+Delay, even when several share that instant.
func (l *Link) deliverHead() {
	l.Dst.HandlePacket(l.flight.pop())
}

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }

// Down takes the link out of service: the pending serialization timer is
// cancelled, every queued packet is discarded with full accounting (buffer
// bytes released via the queue policy, TSQ budget credited via OnTxDone,
// ownership returned to Pool), and subsequent Sends are refused until Up.
// Packets already past serialization (in the flight ring, or re-scheduled by
// a fault hook) are on the wire and still deliver — a failing link loses
// what it was holding, not what it already transmitted. Idempotent.
func (l *Link) Down() {
	if l.down {
		return
	}
	l.down = true
	l.Stats.DownEvents++
	l.accumQueueTicks()
	if l.txEv != nil {
		l.Sim.Cancel(l.txEv)
		l.txEv = nil
	}
	l.busy = false
	for l.queue.len() > 0 {
		p := l.queue.pop()
		l.queueBytes -= p.WireLen()
		l.Stats.DropsDown++
		if l.Policy != nil {
			l.Policy.OnDequeue(l, p)
		}
		if l.OnTxDone != nil {
			l.OnTxDone(p)
		}
		l.Pool.Put(p)
	}
}

// Up returns the link to service. The queue is necessarily empty (Down
// cleared it and Send refused everything since), so the serializer restarts
// on the next Send. Idempotent.
func (l *Link) Up() {
	if !l.down {
		return
	}
	l.down = false
	l.Stats.UpEvents++
	l.accumQueueTicks()
	if !l.busy {
		l.startNext()
	}
}

// faultDeliver is the deliver callback handed to FaultHooks; jitter (extra)
// breaks the FIFO invariant, so this path schedules a per-packet closure.
func (l *Link) faultDeliver(q *packet.Packet, extra sim.Duration) {
	l.Sim.Schedule(l.Delay+extra, func() { l.Dst.HandlePacket(q) })
}

func (l *Link) accumQueueTicks() {
	now := l.Sim.Now()
	dt := now - l.Stats.lastChange
	if dt > 0 {
		l.Stats.QueueByteTicks += float64(l.queueBytes) * float64(dt)
	}
	l.Stats.lastChange = now
}

// AvgQueueBytes returns the time-averaged queue occupancy up to now.
func (l *Link) AvgQueueBytes() float64 {
	l.accumQueueTicks()
	if l.Sim.Now() == 0 {
		return 0
	}
	return l.Stats.QueueByteTicks / float64(l.Sim.Now())
}

// Utilization returns the fraction of capacity used over [0, now].
func (l *Link) Utilization() float64 {
	now := l.Sim.Now()
	if now == 0 {
		return 0
	}
	sentBits := float64(l.Stats.SentBytes) * 8
	capBits := float64(l.Rate) * now.Seconds()
	return sentBits / capBits
}

func (l *Link) String() string {
	return fmt.Sprintf("link(%s %dbps q=%dB)", l.Name, l.Rate, l.queueBytes)
}

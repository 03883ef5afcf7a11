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
// — clones, so downstream mutation stays per-copy; plain Clones, not pool
// draws, which is how CheckConservation counts them). A nil hook is the
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
//
// SentPackets, SentBytes and QueueByteTicks advance when a departure
// settles (see Link), which can lag the departure itself; every Link and
// Switch method that reports them settles first, and a direct read is
// exact once the link has delivered what it sent. Every other field counts
// at the Send, Down or Up that moves it.
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
//
// The serializer is strictly FIFO, so Send fixes each accepted packet's
// departure when it queues it: max(now, the previous departure) + TxTime,
// held in p.SentAt. The link then keeps one delivery event armed at the head
// of its FIFO, and a departure settles (the packet leaves the queue, its
// buffer bytes are released, SentPackets counts it) lazily: at the link's
// own Send, at each delivery, before any read of its queue or stats, and
// when a SharedBuffer must refuse a packet. A departure at the same
// nanosecond as an arrival settles first. Only a departure that runs code
// at its instant — OnTxDone, or a fault hook — keeps a completion event of
// its own (see completes), so a switch egress port costs one event per
// packet and a NIC two. The link holds its packets, those in flight and
// those queued, in one intrusive FIFO through the packets (see pkts): it
// keeps no array of them, and a packet it holds is linked.
type Link struct {
	Sim   *sim.Simulator
	Name  string
	Rate  int64 // bits per second
	Delay sim.Duration
	Dst   Handler

	// Policy is consulted on enqueue/dequeue; nil means unlimited FIFO.
	Policy QueuePolicy

	// OnTxDone, when set, is called as each packet finishes serialization
	// (the NIC tx-completion interrupt) — and for each queued packet a
	// Down() discards, because TSQ budget must be credited for packets
	// "dropped before the wire" exactly like tcpstack's host drop path. Set
	// it before the link carries traffic.
	OnTxDone func(p *packet.Packet)

	// fault, when set, intercepts packets between serialization and
	// propagation (fault injection for chaos testing); nil is a clean wire.
	// SetFault changes it. It sits beside OnTxDone: together they decide
	// how the link departs packets (completes).
	fault FaultHook

	// Pool, when set, receives ownership of packets the link discards
	// internally (the serialization queue cleared by Down). Without it those
	// packets leak from the free-list's perspective.
	Pool *packet.Pool

	Stats LinkStats

	// pkts holds, in one intrusive FIFO, the nFlight packets that departed
	// onto the clean wire, each due at SentAt+Delay, then from qhead the
	// nQueued accepted packets whose departure has not settled. Departures
	// are in queue order and every clean-wire packet propagates for the same
	// Delay, so delivery order is departure order: a departure moves qhead,
	// never the packet, and a delivery pops the front. The FIFO + the bound
	// callbacks below keep the per-packet path free of allocations.
	pkts       packet.FIFO
	qhead      *packet.Packet
	nQueued    int
	nFlight    int
	queueBytes int
	headDep    sim.Time // departure of the queue head, while there is one
	lastDep    sim.Time // departure of the last accepted packet
	down       bool
	txEv       *sim.Event // completion event at the queue head's departure (completes only)
	chainEv    *sim.Event // the one delivery event of lazy departures (chainHead)
	inTx       bool       // txDone is departing the queue head
	// perPacket counts the flight packets, from the head, that departed at a
	// completion event and have a delivery event of their own, scheduled at
	// the departure: a NIC's deliveries keep their departure order among
	// same-instant events.
	perPacket int

	txDoneF      func()
	deliverF     func()
	deliverNextF func()
	faultDelF    func(q *packet.Packet, extra sim.Duration)

	// Conservation counters (checkConservation): packets handed to Dst,
	// queued packets Down discarded, extra copies fault hooks delivered, and
	// fault-hook deliveries still propagating.
	delivered, discarded, dups int64
	faultPending               int
}

// NewLink creates a link with the given rate (bits/sec) and one-way
// propagation delay.
func NewLink(s *sim.Simulator, name string, rate int64, delay sim.Duration, dst Handler) *Link {
	l := &Link{Sim: s, Name: name, Rate: rate, Delay: delay, Dst: dst}
	l.txDoneF = l.txDone
	l.deliverF = l.deliverOne
	l.deliverNextF = l.deliverNext
	l.faultDelF = l.faultDeliver
	return l
}

// QueueBytes returns the bytes currently queued (including the packet being
// serialized).
func (l *Link) QueueBytes() int {
	l.settle()
	return l.queueBytes
}

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
	l.settle()
	if l.Policy != nil && !l.Policy.OnEnqueue(l, p) {
		l.Stats.Drops++
		if p.IP().ECN() == packet.NotECT {
			l.Stats.DropsNonECT++
		}
		return false
	}
	now, n := l.Sim.Now(), p.WireLen()
	l.accumQueueTicks(now)
	l.lastDep = max(now, l.lastDep) + l.TxTime(n)
	p.SentAt = int64(l.lastDep)
	if l.qhead == nil {
		l.headDep, l.qhead = l.lastDep, p
	}
	l.pkts.Push(p)
	l.nQueued++
	l.queueBytes += n
	l.Stats.EnquedPackets++
	if l.queueBytes > l.Stats.MaxQueueBytes {
		l.Stats.MaxQueueBytes = l.queueBytes
	}
	l.arm()
	return true
}

// completes reports whether a departure runs code at its instant: the NIC's
// tx-completion callback or a fault hook. Such a link keeps a completion
// event armed at the queue head and departs each packet there; any other
// link settles its departures lazily.
func (l *Link) completes() bool { return l.OnTxDone != nil || l.fault != nil }

// chainHead is the packet the lazy delivery event waits for: the first in
// flight without an event of its own or, on a lazily settled link, the queue
// head, which departs before it is due.
func (l *Link) chainHead() *packet.Packet {
	if l.perPacket < l.nFlight {
		return l.flightAt(l.perPacket)
	}
	if !l.completes() {
		return l.qhead
	}
	return nil
}

// flightAt returns the i-th packet in flight from the front.
func (l *Link) flightAt(i int) *packet.Packet {
	p := l.pkts.Front()
	for ; i > 0; i-- {
		p = p.Next()
	}
	return p
}

// arm keeps the link's events armed: the lazy delivery event at its chain
// head's arrival, and the completion event, where the link has one, at the
// queue head's departure. Either stays put while armed: a lazily settled
// departure leaves the chain head where it was, and every other change of
// head re-arms here.
func (l *Link) arm() {
	if l.chainEv == nil {
		if p := l.chainHead(); p != nil {
			l.chainEv = l.Sim.At(sim.Time(p.SentAt)+l.Delay, l.deliverNextF)
		}
	}
	if l.txEv == nil && l.completes() && !l.inTx && l.qhead != nil {
		l.txEv = l.Sim.At(l.headDep, l.txDoneF)
	}
}

// settle departs, in order, every queued packet whose departure is due, on a
// link whose departures run no code; the completion event departs the
// others.
func (l *Link) settle() {
	now := l.Sim.Now()
	if l.qhead == nil || l.headDep > now || l.completes() {
		return
	}
	for {
		l.depart()
		if l.qhead == nil || l.headDep > now {
			return
		}
	}
}

// depart completes serialization of the queue head at its departure time:
// buffer release, OnTxDone, then the fault hook or the clean wire. A packet
// departing at a completion event gets a delivery event of its own; a lazy
// one is the chain's. Until OnTxDone returns the packet counts as neither
// queued nor in flight, so a Send from OnTxDone cannot arm the lazy delivery
// event for it.
func (l *Link) depart() {
	p := l.qhead
	l.qhead = p.Next()
	l.nQueued--
	if l.qhead != nil {
		l.headDep = sim.Time(l.qhead.SentAt)
	}
	l.accumQueueTicks(sim.Time(p.SentAt))
	n := p.WireLen()
	l.queueBytes -= n
	l.Stats.SentPackets++
	l.Stats.SentBytes += int64(n)
	if l.Policy != nil {
		l.Policy.OnDequeue(l, p)
	}
	if l.OnTxDone != nil {
		l.OnTxDone(p)
	}
	switch {
	case l.fault != nil:
		l.pkts.Remove(p)
		l.runFault(p)
	case l.inTx:
		l.nFlight++
		l.perPacket++
		l.Sim.ScheduleFunc(l.Delay, l.deliverF)
	default:
		l.nFlight++
	}
}

// txDone is the completion event: the queue head departs now. A packet that
// OnTxDone sends meanwhile waits for the arm below, so its completion is
// queued after this packet's delivery.
func (l *Link) txDone() {
	l.txEv = nil // fired; never Cancel a consumed handle (it may be recycled)
	l.inTx = true
	l.depart()
	l.inTx = false
	l.arm()
}

// deliverOne is a packet's own delivery event: the flight head arrives. Each
// firing delivers exactly one, at exactly SentAt+Delay, even when several
// share that instant.
func (l *Link) deliverOne() {
	l.perPacket--
	l.deliver()
}

// deliverNext is the lazy delivery event: the chain head departs if it has
// not, and the flight head arrives; the event re-arms for the next before
// the handler runs. Where it and a packet's own event share an instant each
// delivers one, in FIFO order, whichever fires first.
func (l *Link) deliverNext() {
	l.chainEv = nil // fired; never Cancel a consumed handle
	l.settle()
	l.deliver()
}

func (l *Link) deliver() {
	p := l.pkts.Pop()
	l.nFlight--
	l.delivered++
	l.arm()
	l.Dst.HandlePacket(p)
}

// Fault returns the link's fault hook; nil is a clean wire.
func (l *Link) Fault() FaultHook { return l.fault }

// SetFault installs h as the link's fault hook (nil restores the clean
// wire). It may run while packets are queued: departures already due settle
// first, on the old hook, and the link's events are re-armed for the
// departure mode the new hook implies.
func (l *Link) SetFault(h FaultHook) {
	l.settle()
	was := l.completes()
	l.fault = h
	switch now := l.completes(); {
	case now && !was:
		// Completion events from here on, and every packet the lazy event
		// still covered gets a delivery event of its own.
		l.Sim.Cancel(l.chainEv)
		l.chainEv = nil
		for p := l.flightAt(l.perPacket); l.perPacket < l.nFlight; p = p.Next() {
			l.Sim.At(sim.Time(p.SentAt)+l.Delay, l.deliverF)
			l.perPacket++
		}
	case was && !now:
		l.Sim.Cancel(l.txEv)
		l.txEv = nil
	}
	l.arm()
}

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }

// Down takes the link out of service: departures already due settle, then
// every queued packet is discarded with full accounting (buffer bytes
// released via the queue policy, TSQ budget credited via OnTxDone,
// ownership returned to Pool), and subsequent Sends are refused until Up.
// Packets already past serialization (in flight on the clean wire, or re-scheduled by
// a fault hook) are on the wire and still deliver — a failing link loses
// what it was holding, not what it already transmitted. Idempotent.
func (l *Link) Down() {
	if l.down {
		return
	}
	l.settle()
	now := l.Sim.Now()
	l.down = true
	l.Stats.DownEvents++
	l.accumQueueTicks(now)
	l.Sim.Cancel(l.txEv)
	l.txEv = nil
	if l.perPacket == l.nFlight {
		// The lazy delivery event waited for the queue head.
		l.Sim.Cancel(l.chainEv)
		l.chainEv = nil
	}
	l.lastDep = now
	for l.qhead != nil {
		p := l.qhead
		l.qhead = p.Next()
		l.nQueued--
		l.pkts.Remove(p)
		l.queueBytes -= p.WireLen()
		l.Stats.DropsDown++
		l.discarded++
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
	l.accumQueueTicks(l.Sim.Now())
}

// runFault hands a serialized packet to the fault hook, counting every
// delivery past the first as a duplicate.
func (l *Link) runFault(p *packet.Packet) {
	before := l.faultPending
	l.fault(l, p, l.faultDelF)
	if n := l.faultPending - before; n > 1 {
		l.dups += int64(n - 1)
	}
}

// faultDeliver is the deliver callback handed to FaultHooks; jitter (extra)
// breaks the FIFO invariant, so this path schedules a per-packet closure.
func (l *Link) faultDeliver(q *packet.Packet, extra sim.Duration) {
	l.faultPending++
	l.Sim.Schedule(l.Delay+extra, func() {
		l.faultPending--
		l.delivered++
		l.Dst.HandlePacket(q)
	})
}

// accumQueueTicks integrates the queue's occupancy up to at, the instant its
// next change happens.
func (l *Link) accumQueueTicks(at sim.Time) {
	if dt := at - l.Stats.lastChange; dt > 0 {
		l.Stats.QueueByteTicks += float64(l.queueBytes) * float64(dt)
	}
	l.Stats.lastChange = at
}

// AvgQueueBytes returns the time-averaged queue occupancy up to now.
func (l *Link) AvgQueueBytes() float64 {
	l.settle()
	l.accumQueueTicks(l.Sim.Now())
	if l.Sim.Now() == 0 {
		return 0
	}
	return l.Stats.QueueByteTicks / float64(l.Sim.Now())
}

func (l *Link) String() string {
	return fmt.Sprintf("link(%s %dbps q=%dB)", l.Name, l.Rate, l.queueBytes)
}

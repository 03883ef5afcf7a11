// Package sim provides the discrete-event simulation core used by every
// substrate in this repository: a nanosecond virtual clock, an event scheduler
// with cancellable timers, and a deterministic RNG.
//
// The simulator is single-threaded: all events run on the goroutine that
// calls Run, and that goroutine owns the simulator and everything it drives.
// Determinism is guaranteed by ordering events first by time and then by
// insertion sequence, so two events scheduled for the same instant fire in
// the order they were scheduled.
//
// Stop is the one method another goroutine may call: it makes Run return
// after the current event, which is how a long-lived service (cmd/acdcd)
// interrupts a running simulation. Everything else a service needs from
// another goroutine it asks the simulation goroutine for (internal/daemon's
// command queue).
//
// # Event queue
//
// A pending event lives in exactly one of two structures, chosen by its slot
// (when >> 6, 64 ns) when it is queued: a timing wheel of 256 slots for the
// window [cur, cur+256) — cur is the clock's slot — and a binary min-heap for
// everything later (and for the rare event whose slot is too crowded to
// insert into cheaply). Link events, one serialization or
// one propagation delay ahead, land in the wheel; RTO, delayed-ACK, TIME_WAIT
// and GC timers land in the heap and no longer deepen what the link events
// sift through. The firing order is exactly (when, seq):
//
//   - a slot's list is kept sorted by (when, seq), so its head is its minimum;
//   - every wheel resident's slot lies in [cur, cur+256), so the first
//     occupied slot scanning circularly from cur holds the wheel's minimum;
//   - Run fires whichever of that head and the heap's top is smaller;
//   - the clock, and cur with it, only moves forward and never past a pending
//     event, so a resident's slot stays inside the window until it fires.
//
// # Timers and deadlines
//
// A Timer is one restartable timer with an Event of its own (a connection's
// RTO, delayed ACK and persist timers). A Deadlines keeps a population of
// them, one per owner holding a 4-byte Deadline handle, behind one pending
// Event: a vSwitch's per-flow inactivity timers, a Stack's TIME_WAIT waits.
// It changes no event's order: an entry draws its seq exactly when a Timer's
// event would (armed while idle, moved earlier, re-armed at a stale wake-up;
// or earlier, by StampAt, for Adopt) and keeps it, and the shared event is
// re-queued at the smallest entry's (when, seq). Each firing takes one entry,
// so Processed is what the Timers would count. Such an event can carry an
// older seq than events queued since, so a wheel slot is sorted by (when,
// seq), not by when.
//
// # Event recycling
//
// Event structs are pooled on a per-Simulator free list: firing or cancelling
// an event returns it to the pool, and the next Schedule/At reuses it. In the
// steady state a sim workload therefore schedules with zero allocations. The
// contract this imposes on callers: an *Event handle is valid only while the
// event is pending. Once it has fired or been cancelled, the handle must be
// dropped (nil it out, as Timer does) — calling Cancel through a stale handle
// is a no-op at best and can target an unrelated reused event at worst.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration = Time

// Handy duration units, mirroring time.Nanosecond etc. but for simulated time.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// String renders t with an adaptive unit, e.g. "1.250ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback. It is returned by Schedule/At so callers can
// cancel pending timers (e.g. retransmission timers that are reset on ACKs).
// Handles are only valid while the event is pending; see the package comment.
//
// The struct stays in the allocator's 48-byte size class (TestEventSizeClass):
// fabric-stride allocates under 1 MB in total, so a wider Event shows up in
// alloc_mb.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	// next and prev link the event into its wheel slot's list. The head's
	// prev is the tail and the tail's next is nil, so a slot is one pointer.
	next, prev *Event
	index      int32 // heap index, or notQueued, or inWheel
}

// Event.index values of an event that is not in the heap.
const (
	notQueued = -1
	inWheel   = -2
)

// maxFreeEvents bounds the event free list so a one-off scheduling burst does
// not pin memory for the lifetime of the simulator.
const maxFreeEvents = 1 << 14

// Wheel geometry: 256 slots of 64 ns, a 16.4 µs window. It has to cover one
// 9 KB serialization at 10 Gbit/s (7.2 µs) plus one propagation delay (5 µs);
// nothing is bought by making it larger, and the slot array is embedded in
// every Simulator (TestSimulatorSize).
const (
	slotShift  = 6
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
)

// maxSlotWalk bounds the sorted insert into one slot's list. The simulated
// workloads walk 0.3–0.6 residents per insert; an event that would pass more
// than this many goes to the heap instead (popNext weighs the heap's top
// against the wheel anyway), so thousands of events crowded into one slot
// cost O(log n) each and not O(n).
const maxSlotWalk = 8

func slotOf(t Time) int64 { return int64(t) >> slotShift }

// Simulator owns the virtual clock and the pending-event queue.
type Simulator struct {
	now Time // the virtual clock
	// The wheel's window starts at the clock's slot, cur = slotOf(Now()).
	// No event is pending in the past and the clock never moves backwards,
	// so every wheel resident's slot lies in [cur, cur+wheelSlots) and
	// slot&wheelMask never aliases.
	nWheel  int                     // events in the wheel
	occ     [wheelSlots / 64]uint64 // bit i set: wheel[i] is non-empty
	wheel   [wheelSlots]*Event      // per-slot list heads, sorted by (when, seq)
	pq      []*Event                // far events: binary min-heap by (when, seq)
	free    []*Event                // recycled events, reused by At/Schedule
	seq     uint64
	rng     *rand.Rand
	stopped atomic.Bool
	// Processed counts events executed; useful for perf accounting in tests.
	Processed uint64
	// allocated counts Event structs ever heap-allocated (free-list misses).
	allocated int64
}

// Allocated returns the number of Event structs this simulator has ever
// heap-allocated — the free-list miss count. In steady state it stops
// growing, which TestEventRecycling pins.
func (s *Simulator) Allocated() int64 { return s.allocated }

// New creates a simulator whose RNG is seeded with seed (deterministic runs).
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation RNG. All stochastic behaviour (workload
// arrivals, hash seeds) must draw from it so runs are reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after delay d. A negative delay is treated as zero.
func (s *Simulator) Schedule(d Duration, fn func()) *Event {
	return s.atSeq(s.now+max(d, 0), s.nextSeq(), fn)
}

// ScheduleFunc runs fn after delay d, fire-and-forget: no Event handle is
// returned, so the event can never be cancelled. Use it for callbacks that
// always run (transmission completions, workload ticks) — it makes the
// no-handle intent explicit at the call site.
func (s *Simulator) ScheduleFunc(d Duration, fn func()) {
	s.Schedule(d, fn)
}

// At runs fn at absolute time t. Scheduling in the past fires at the current
// time (events never run retroactively).
func (s *Simulator) At(t Time, fn func()) *Event {
	return s.atSeq(max(t, s.now), s.nextSeq(), fn)
}

// nextSeq draws a sequence number for an event or a Deadlines entry.
func (s *Simulator) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// Stamp is the (when, seq) an event fires at.
type Stamp struct {
	When Time
	Seq  uint64
}

// StampAt draws the stamp At(t) would give an event now (Deadlines.Adopt).
func (s *Simulator) StampAt(t Time) Stamp { return Stamp{max(t, s.now), s.nextSeq()} }

// atSeq queues fn at (t, seq) for a seq drawn earlier, so it draws nothing;
// t must not lie in the past.
func (s *Simulator) atSeq(t Time, seq uint64, fn func()) *Event {
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &Event{index: notQueued}
		s.allocated++
	}
	ev.when, ev.seq, ev.fn = t, seq, fn
	s.enqueue(ev)
	return ev
}

// recycle returns a no-longer-pending event to the free list.
func (s *Simulator) recycle(ev *Event) {
	ev.fn = nil
	if len(s.free) < maxFreeEvents {
		s.free = append(s.free, ev)
	}
}

// requeue moves a pending event to (t, seq), drawing nothing; t must not lie
// in the past.
func (s *Simulator) requeue(ev *Event, t Time, seq uint64) {
	s.dequeue(ev)
	ev.when, ev.seq = t, seq
	s.enqueue(ev)
}

// Cancel removes a pending event so it will not fire and recycles it. Safe to
// call with nil or on events that already fired or were cancelled (no-op) —
// but see the package comment: a stale handle may alias a reused event.
func (s *Simulator) Cancel(ev *Event) {
	if ev == nil || ev.index == notQueued {
		return
	}
	s.dequeue(ev)
	s.recycle(ev)
}

// Stop makes Run return after the currently executing event completes. Safe
// to call from any goroutine (e.g. a daemon shutting its pacer loop down).
func (s *Simulator) Stop() { s.stopped.Store(true) }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.pq) + s.nWheel }

// Run executes events in time order until the queue drains, Stop is called,
// or the next event would fire after `until` (pass a huge value to run to
// completion). The clock is left at the time of the last executed event, or
// at `until` if the queue was exhausted (or cut short by the horizon) so
// callers measuring rates over [0, until] divide by the right span. A Stop
// leaves the clock at the stopping event. The clock never moves backwards: a
// horizon already in the past fires nothing and leaves it alone.
func (s *Simulator) Run(until Time) {
	s.run(until)
	if !s.stopped.Load() && s.Now() < until {
		s.now = until
	}
}

// RunFor is shorthand for Run(Now()+d).
func (s *Simulator) RunFor(d Duration) { s.Run(s.Now() + d) }

// RunAll drains the queue completely (or until Stop), leaving the clock at
// the time of the last executed event. Unlike Run, it never advances the
// clock past the final event.
func (s *Simulator) RunAll() { s.run(math.MaxInt64) }

// run fires events in (when, seq) order until none is due by until or Stop
// is called.
func (s *Simulator) run(until Time) {
	s.stopped.Store(false)
	for !s.stopped.Load() {
		ev := s.popNext(until)
		if ev == nil {
			return
		}
		s.now = ev.when
		fn := ev.fn
		s.Processed++
		s.recycle(ev)
		fn()
	}
}

// popNext dequeues the earliest pending event, or returns nil when the queue
// is empty or its earliest event fires after until. The wheel's earliest is
// the head of the first occupied slot from the clock's on; the heap's top
// beats it when the window has advanced over an event queued as far.
func (s *Simulator) popNext(until Time) *Event {
	var ev *Event
	if s.nWheel > 0 {
		ev = s.wheel[s.firstSlot()]
	}
	if len(s.pq) > 0 && (ev == nil || eventLess(s.pq[0], ev)) {
		ev = s.pq[0]
	}
	if ev == nil || ev.when > until {
		return nil
	}
	s.dequeue(ev)
	return ev
}

// enqueue files a pending event: into the wheel when its slot lies inside the
// window, into the heap otherwise. ev.when >= Now(), so the slot is never
// before the window.
func (s *Simulator) enqueue(ev *Event) {
	slot := slotOf(ev.when)
	if slot-slotOf(s.Now()) >= wheelSlots {
		s.push(ev)
		return
	}
	i := slot & wheelMask
	head := s.wheel[i]
	if head == nil {
		ev.next, ev.prev = nil, ev
		s.wheel[i] = ev
		s.occ[i>>6] |= 1 << (i & 63)
	} else {
		// Walk back from the tail over the residents that sort after ev to p,
		// the one ev follows (nil: none). An event from At carries the largest
		// seq drawn so far, so same-when bursts append in O(1); a Deadlines
		// event may carry an earlier seq and so precede residents of its when.
		tail := head.prev
		p := tail
		for steps := 0; p != nil && eventLess(ev, p); steps++ {
			if steps == maxSlotWalk {
				s.push(ev)
				return
			}
			if p == head {
				p = nil
			} else {
				p = p.prev
			}
		}
		switch p {
		case nil:
			ev.next, ev.prev = head, tail
			head.prev = ev
			s.wheel[i] = ev
		case tail:
			ev.next, ev.prev = nil, tail
			tail.next = ev
			head.prev = ev
		default:
			ev.next, ev.prev = p.next, p
			p.next.prev = ev
			p.next = ev
		}
	}
	ev.index = inWheel
	s.nWheel++
}

// dequeue takes a pending event out of the structure that holds it.
func (s *Simulator) dequeue(ev *Event) {
	if ev.index != inWheel {
		s.remove(int(ev.index))
		return
	}
	ev.index = notQueued
	s.nWheel--
	i := slotOf(ev.when) & wheelMask
	head := s.wheel[i]
	switch {
	case ev != head:
		ev.prev.next = ev.next
		if ev.next == nil {
			head.prev = ev.prev
		} else {
			ev.next.prev = ev.prev
		}
	case ev.next == nil:
		s.wheel[i] = nil
		s.occ[i>>6] &^= 1 << (i & 63)
	default:
		ev.next.prev = ev.prev
		s.wheel[i] = ev.next
	}
	ev.next, ev.prev = nil, nil
}

// firstSlot returns the index of the first occupied slot scanning circularly
// from the clock's, which holds the wheel's earliest event. The wheel must
// not be empty.
func (s *Simulator) firstSlot() int {
	start := int(slotOf(s.Now()) & wheelMask)
	w := start >> 6
	if b := s.occ[w] >> (start & 63); b != 0 {
		return start + bits.TrailingZeros64(b)
	}
	// The last round is the starting word again, for the bits below start.
	for {
		w = (w + 1) % len(s.occ)
		if b := s.occ[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
}

// eventLess orders events by (when, seq): time first, insertion order second.
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push inserts ev into the heap.
func (s *Simulator) push(ev *Event) {
	i := len(s.pq)
	s.pq = append(s.pq, ev)
	s.siftUp(i)
}

// remove deletes the event at heap index i.
func (s *Simulator) remove(i int) {
	n := len(s.pq) - 1
	s.pq[i].index = notQueued
	last := s.pq[n]
	s.pq[n] = nil
	s.pq = s.pq[:n]
	if i < n {
		s.pq[i] = last
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
}

// siftUp restores the heap property upward from index i.
func (s *Simulator) siftUp(i int) {
	ev := s.pq[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, s.pq[parent]) {
			break
		}
		s.pq[i] = s.pq[parent]
		s.pq[i].index = int32(i)
		i = parent
	}
	s.pq[i] = ev
	ev.index = int32(i)
}

// siftDown restores the heap property downward from index i; it reports
// whether the element moved.
func (s *Simulator) siftDown(i int) bool {
	ev := s.pq[i]
	start := i
	n := len(s.pq)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(s.pq[r], s.pq[child]) {
			child = r
		}
		if !eventLess(s.pq[child], ev) {
			break
		}
		s.pq[i] = s.pq[child]
		s.pq[i].index = int32(i)
		i = child
	}
	s.pq[i] = ev
	ev.index = int32(i)
	return i > start
}

package sim

import "slices"

// Deadline is an owner's handle on its entry in a Deadlines; zero while no
// deadline is pending.
type Deadline uint32

// Pending reports whether the owner's deadline is armed and has not fired.
func (h Deadline) Pending() bool { return h != 0 }

// Deadlines is a population of restartable one-shot deadlines, one per owner
// of type T, behind one pending Event. Each entry keeps the (when, seq) a Timer
// of its own would give its event, and the shared event sits at the smallest,
// so callbacks fire exactly where Timers' would, one event each (package
// comment, "Timers and deadlines"). Owners that may never arm a deadline
// make theirs on the first arm, so that they cost nothing.
type Deadlines[T any] struct {
	sim    *Simulator
	fn     func(T)
	handle func(T) *Deadline
	ev     *Event // at heap[0]'s (when, seq); nil when the heap is empty
	fire   func() // d.expire
	// heap is a min-heap by (when, seq); an owner's handle is its entry's
	// index + 1, kept up to date as entries move.
	heap []deadlineEntry[T]
}

// deadlineEntry is one owner's deadline. deadline is the logical expiry,
// which a lazy Reset may have pushed past when.
type deadlineEntry[T any] struct {
	when     Time
	seq      uint64
	deadline Time
	v        T
}

// NewDeadlines returns an empty population on s. fn runs when an owner's
// deadline expires; handle returns where the owner keeps its Deadline, which
// the population maintains and clears before fn runs.
func NewDeadlines[T any](s *Simulator, fn func(T), handle func(T) *Deadline) *Deadlines[T] {
	d := &Deadlines[T]{sim: s, fn: fn, handle: handle}
	d.fire = d.expire
	return d
}

// Reset (re)arms v's deadline to expire after dur, as Timer.Reset.
func (d *Deadlines[T]) Reset(v T, dur Duration) {
	d.ResetAt(v, d.sim.Now()+max(dur, 0))
}

// ResetAt (re)arms v's deadline to expire at at, as Timer.ResetAt: pushing a
// pending deadline later only records it; moving it earlier or arming it draws
// a sequence number.
func (d *Deadlines[T]) ResetAt(v T, at Time) {
	if h := *d.handle(v); h != 0 {
		e := &d.heap[h-1]
		if e.deadline = at; e.when <= at {
			return
		}
		e.when, e.seq = max(at, d.sim.Now()), d.sim.nextSeq()
		d.up(int(h - 1))
		d.sync()
	} else {
		d.Adopt(v, d.sim.StampAt(at))
	}
}

// Adopt (re)arms v's deadline at a stamp drawn earlier by StampAt, drawing
// nothing: v fires exactly there, as a Timer armed at the draw would.
func (d *Deadlines[T]) Adopt(v T, at Stamp) {
	e := deadlineEntry[T]{at.When, at.Seq, at.When, v}
	if h := *d.handle(v); h != 0 {
		if d.heap[h-1] = e; !d.down(int(h - 1)) {
			d.up(int(h - 1))
		}
	} else {
		// Doubling, not append's 1.25× for large slices, bounds what growth
		// copies at one final size.
		if len(d.heap) == cap(d.heap) {
			d.heap = slices.Grow(d.heap, len(d.heap))
		}
		d.heap = append(d.heap, e)
		d.up(len(d.heap) - 1)
	}
	d.sync()
}

// Stop cancels v's pending deadline, if any.
func (d *Deadlines[T]) Stop(v T) {
	if hp := d.handle(v); *hp != 0 {
		d.remove(int(*hp - 1))
		*hp = 0
		d.sync()
	}
}

// expire runs at heap[0]'s (when, seq). A deadline pushed later re-arms there
// with a fresh seq, as Timer.fire does; otherwise the entry goes and fn runs
// last, so it may arm the owner again.
func (d *Deadlines[T]) expire() {
	d.ev = nil // fired, and recycled by run
	if e := &d.heap[0]; e.deadline > d.sim.Now() {
		e.when, e.seq = e.deadline, d.sim.nextSeq()
		d.down(0)
		d.sync()
		return
	}
	v := d.heap[0].v
	d.remove(0)
	*d.handle(v) = 0
	d.sync()
	d.fn(v)
}

// sync points the shared event at heap[0]'s (when, seq), drawing nothing.
func (d *Deadlines[T]) sync() {
	switch {
	case len(d.heap) == 0:
		d.sim.Cancel(d.ev)
		d.ev = nil
	case d.ev == nil:
		d.ev = d.sim.atSeq(d.heap[0].when, d.heap[0].seq, d.fire)
	case d.ev.when != d.heap[0].when || d.ev.seq != d.heap[0].seq:
		d.sim.requeue(d.ev, d.heap[0].when, d.heap[0].seq)
	}
}

// remove takes the entry at index i out of the heap.
func (d *Deadlines[T]) remove(i int) {
	last := len(d.heap) - 1
	d.heap[i] = d.heap[last]
	d.heap[last] = deadlineEntry[T]{} // keeps no owner alive
	d.heap = d.heap[:last]
	if i < last && !d.down(i) {
		d.up(i)
	}
}

func (e *deadlineEntry[T]) before(o *deadlineEntry[T]) bool {
	return e.when < o.when || e.when == o.when && e.seq < o.seq
}

// set places e at index i and tells its owner.
func (d *Deadlines[T]) set(i int, e deadlineEntry[T]) {
	d.heap[i] = e
	*d.handle(e.v) = Deadline(i + 1)
}

func (d *Deadlines[T]) up(i int) {
	e := d.heap[i]
	for ; i > 0 && e.before(&d.heap[(i-1)/2]); i = (i - 1) / 2 {
		d.set(i, d.heap[(i-1)/2])
	}
	d.set(i, e)
}

// down sifts the entry at index i down and reports whether it moved.
func (d *Deadlines[T]) down(i int) bool {
	e, start := d.heap[i], i
	for {
		c := 2*i + 1
		if c+1 < len(d.heap) && d.heap[c+1].before(&d.heap[c]) {
			c++
		}
		if c >= len(d.heap) || !d.heap[c].before(&e) {
			break
		}
		d.set(i, d.heap[c])
		i = c
	}
	d.set(i, e)
	return i > start
}

package sim

// Timer is a restartable one-shot timer bound to a Simulator, modelled after
// the kernel timers TCP uses for retransmission and delayed ACKs. Unlike raw
// Events, a Timer can be reset repeatedly and remembers its callback.
//
// Rearming is lazy, the way kernel TCP keepalive timers are: Reset only
// records the new logical deadline when the already-pending event fires no
// later than it, and the expiry handler re-arms to the recorded deadline
// instead of running the callback early. Per-segment timers (delayed ACK; a
// Deadlines entry alike) are reset on every packet but almost never fire, so
// the common case — deadline pushed further out — costs two stores instead of
// a heap-sift over every pending event in the simulation.
type Timer struct {
	sim *Simulator
	fn  func()
	ev  *Event
	// deadline is the logical expiry; ev.when may be earlier (a stale,
	// not-yet-collapsed arm), in which case fire re-arms instead of running fn.
	deadline Time
	// fireFn is t.fire bound once at construction; taking the method value
	// inside Reset would allocate a fresh closure on every (re)arm.
	fireFn func()
}

// NewTimer creates a stopped timer that runs fn when it expires.
func NewTimer(s *Simulator, fn func()) *Timer {
	t := &Timer{sim: s, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire after d, superseding any pending expiry.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.sim.Now() + d)
}

// ResetAt (re)arms the timer to fire at absolute time at. fire clears t.ev
// before the handle can go stale, so a non-nil t.ev is always still pending.
func (t *Timer) ResetAt(at Time) {
	t.deadline = at
	if t.ev != nil {
		if t.ev.when <= at {
			// The pending event fires no later than the new deadline; fire
			// will notice the deadline moved and re-arm. Deferring the queue
			// update to then is what makes the per-packet rearm O(1).
			return
		}
		// Moving earlier: the pending event is too late. It takes a fresh seq,
		// so it orders among same-time events as a cancel+schedule would.
		t.sim.requeue(t.ev, max(at, t.sim.Now()), t.sim.nextSeq())
		return
	}
	t.ev = t.sim.At(at, t.fireFn)
}

// ArmIfIdle arms the timer for d only if it is not already pending.
func (t *Timer) ArmIfIdle(d Duration) {
	if !t.Pending() {
		t.Reset(d)
	}
}

// Stop cancels a pending expiry. Safe on stopped timers.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.sim.Cancel(t.ev)
		t.ev = nil
	}
}

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.ev != nil }

// fire runs at the scheduled event's expiry. If Reset pushed the logical
// deadline past the event that just fired, this is a stale wakeup: re-arm at
// the real deadline and stay silent. Otherwise clear the pending handle (the
// event has been recycled; holding the stale pointer would violate the Event
// lifetime contract, see package comment) and run the callback.
func (t *Timer) fire() {
	t.ev = nil
	if d := t.deadline; d > t.sim.Now() {
		t.ev = t.sim.At(d, t.fireFn)
		return
	}
	t.fn()
}

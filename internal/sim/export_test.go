package sim

import "time"

// Range calls f for every key and value, in slot order. f must not change
// the index.
func (ix *Index[K, V]) Range(f func(K, V)) {
	ix.s.Range(func(s indexSlot[K, V]) { f(s.k, s.v) })
}

// SetClock replaces the wall-clock source (tests). The pacer is rebased so
// the new clock's current reading maps to the simulator's current time.
func (p *Pacer) SetClock(clock func() time.Duration) {
	p.clock = clock
	p.rebase()
}

// Deadline returns the expiry time of a pending timer; valid only when
// Pending() is true.
func (t *Timer) Deadline() Time {
	if t.ev == nil {
		return 0
	}
	return t.deadline
}

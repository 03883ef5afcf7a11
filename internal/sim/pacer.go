package sim

import (
	"math"
	"time"
)

// Pacer drives a Simulator against a wall clock: each Advance runs the
// simulation up to the virtual time the elapsed wall time maps to under a
// configurable scale. It is what turns the batch simulator into something a
// long-lived daemon can keep continuously current — the service-mode
// equivalent of a production vSwitch that is always "now".
//
// Catch-up is bounded: if the process stalls (GC pause, a slow admin
// command, the scheduler starving the loop), the pacer refuses to replay
// more than MaxCatchUp of virtual time in one Advance and forgives the
// remaining lag instead, rebasing its wall anchor. A daemon that fell a
// minute behind must degrade (run slightly slow, report the forgiven lag)
// rather than freeze serving requests while it replays the minute.
//
// A Pacer is owned by the simulation goroutine: Advance runs events.
type Pacer struct {
	sim *Simulator
	// scale is virtual nanoseconds advanced per wall nanosecond. 1.0 paces
	// the simulation at real time; a heavy topology typically needs < 1.
	scale float64
	// maxCatchUp bounds the virtual time one Advance may replay.
	maxCatchUp Duration
	// clock returns elapsed wall time; injectable so tests are
	// deterministic. The zero pacer uses the monotonic system clock.
	clock func() time.Duration

	wallBase time.Duration // clock() at the last rebase
	simBase  Time          // sim.Now() at the last rebase
	forgiven Duration      // total virtual time dropped by bounded catch-up
}

// NewPacer creates a pacer anchored at the simulator's current time. A scale
// that is not above 0 (NaN included) defaults to 1.0 (real time);
// maxCatchUp ≤ 0 defaults to 100ms of virtual time per Advance.
func NewPacer(s *Simulator, scale float64, maxCatchUp Duration) *Pacer {
	if !(scale > 0) {
		scale = 1.0
	}
	if maxCatchUp <= 0 {
		maxCatchUp = 100 * Millisecond
	}
	start := time.Now()
	p := &Pacer{
		sim:        s,
		scale:      scale,
		maxCatchUp: maxCatchUp,
		clock:      func() time.Duration { return time.Since(start) },
	}
	p.rebase()
	return p
}

// rebase re-anchors the wall→virtual mapping at the present.
func (p *Pacer) rebase() {
	p.wallBase = p.clock()
	p.simBase = p.sim.Now()
}

// Target returns the virtual time the simulation should have reached by now,
// saturating at the largest Time: a scale so large that the product leaves
// int64 (or is NaN, as 0 × +Inf) must not wrap to a time in the past.
func (p *Pacer) Target() Time {
	elapsed := p.clock() - p.wallBase
	d := float64(elapsed) * p.scale
	if !(d < 1<<62) || Time(d) > math.MaxInt64-p.simBase {
		return math.MaxInt64
	}
	return p.simBase + Time(d)
}

// Advance runs the simulation toward Target, replaying at most MaxCatchUp of
// virtual time; any further backlog is forgiven (counted, not replayed). It
// returns the virtual time actually reached.
func (p *Pacer) Advance() Time {
	target := p.Target()
	now := p.sim.Now()
	if target <= now {
		return now
	}
	if lag := target - now; lag > p.maxCatchUp {
		p.forgiven += min(lag-p.maxCatchUp, math.MaxInt64-p.forgiven) // saturates as Target does
		target = now + p.maxCatchUp
		// Re-anchor at the clamped target once it has run, so the forgiven
		// backlog does not carry into every subsequent Advance, while what a
		// Stop left short of the target is still owed.
		defer func() { p.wallBase, p.simBase = p.clock(), target }()
	}
	p.sim.Run(target)
	return p.sim.Now()
}

// Forgiven returns the total virtual time dropped by bounded catch-up — the
// daemon's "how far behind real time have I been" gauge.
func (p *Pacer) Forgiven() Duration { return p.forgiven }

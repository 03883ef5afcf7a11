package sim

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a manually-advanced wall clock for deterministic pacer tests.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) read() time.Duration  { return c.now }
func (c *fakeClock) tick(d time.Duration) { c.now += d }

func TestPacerTracksWallClock(t *testing.T) {
	s := New(1)
	fired := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Duration(i)*Millisecond, func() { fired++ })
	}
	p := NewPacer(s, 1.0, Second)
	clk := &fakeClock{}
	p.SetClock(clk.read)

	clk.tick(5 * time.Millisecond)
	if got := p.Advance(); got != 5*Millisecond {
		t.Fatalf("Advance reached %v, want 5ms", got)
	}
	if fired != 5 {
		t.Fatalf("fired %d events by 5ms, want 5", fired)
	}
	clk.tick(5 * time.Millisecond)
	p.Advance()
	if fired != 10 {
		t.Fatalf("fired %d events by 10ms, want 10", fired)
	}
	if p.Forgiven() != 0 {
		t.Fatalf("forgave %v with no stall", p.Forgiven())
	}
}

func TestPacerScale(t *testing.T) {
	s := New(1)
	p := NewPacer(s, 0.5, Second)
	clk := &fakeClock{}
	p.SetClock(clk.read)

	clk.tick(10 * time.Millisecond)
	if got := p.Advance(); got != 5*Millisecond {
		t.Fatalf("scale 0.5: 10ms wall advanced sim to %v, want 5ms", got)
	}
}

func TestPacerBoundsCatchUp(t *testing.T) {
	s := New(1)
	p := NewPacer(s, 1.0, 10*Millisecond)
	clk := &fakeClock{}
	p.SetClock(clk.read)

	// A 1-second stall: only MaxCatchUp is replayed, the rest is forgiven.
	clk.tick(time.Second)
	if got := p.Advance(); got != 10*Millisecond {
		t.Fatalf("stall replayed to %v, want the 10ms bound", got)
	}
	if want := Second - 10*Millisecond; p.Forgiven() != want {
		t.Fatalf("forgiven %v, want %v", p.Forgiven(), want)
	}
	// After the rebase, normal pacing resumes without re-counting the lag.
	clk.tick(2 * time.Millisecond)
	if got := p.Advance(); got != 12*Millisecond {
		t.Fatalf("post-stall advance reached %v, want 12ms", got)
	}
	if want := Second - 10*Millisecond; p.Forgiven() != want {
		t.Fatalf("forgiven grew to %v after recovery, want %v", p.Forgiven(), want)
	}
}

// TestPacerOwesWhatStopCut: a Stop cuts a bounded catch-up short (the daemon
// does so to serve a command); what it left of the bound is still owed, and
// the next Advance replays it without counting it as forgiven.
func TestPacerOwesWhatStopCut(t *testing.T) {
	s := New(1)
	s.At(4*Millisecond, s.Stop)
	p := NewPacer(s, 1.0, 10*Millisecond)
	clk := &fakeClock{}
	p.SetClock(clk.read)

	clk.tick(time.Second)
	if got := p.Advance(); got != 4*Millisecond {
		t.Fatalf("stopped advance reached %v, want 4ms", got)
	}
	if got := p.Advance(); got != 10*Millisecond {
		t.Fatalf("the next advance reached %v, want the 10ms the first one was bound to", got)
	}
	if want := Second - 10*Millisecond; p.Forgiven() != want {
		t.Fatalf("forgiven %v, want %v", p.Forgiven(), want)
	}
}

func TestPacerIdleWhenAhead(t *testing.T) {
	s := New(1)
	s.RunFor(5 * Millisecond)
	p := NewPacer(s, 1.0, Second)
	clk := &fakeClock{}
	p.SetClock(clk.read)
	// No wall time has passed: the sim must not move.
	if got := p.Advance(); got != 5*Millisecond {
		t.Fatalf("idle Advance moved the clock to %v", got)
	}
}

// TestStopFromAnotherGoroutine pins the cross-goroutine contract a daemon
// relies on: Stop, the one method another goroutine may call, interrupts a
// running Run.
func TestStopFromAnotherGoroutine(t *testing.T) {
	s := New(1)
	var reschedule func()
	reschedule = func() { s.Schedule(Microsecond, reschedule) }
	reschedule()
	reached := make(chan struct{})
	s.At(100*Microsecond, func() { close(reached) })

	done := make(chan struct{})
	go func() {
		<-reached
		s.Stop()
		close(done)
	}()
	s.Run(Second) // would run for a virtual second without the Stop
	<-done
	if now := s.Now(); now >= Second {
		t.Fatalf("Stop did not interrupt Run (now=%v)", now)
	}
}

// TestPacerHugeScaleKeepsRunning: a scale that is NaN, +Inf or so large that
// elapsed × scale leaves int64 must not freeze the virtual clock. NaN falls
// back to real time; the others saturate Target at the largest Time, so each
// Advance replays its bounded catch-up and forgives the rest, the forgiven
// total saturating too.
func TestPacerHugeScaleKeepsRunning(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), 1e300} {
		s := New(1)
		fired := 0
		for i := 1; i <= 5; i++ {
			s.Schedule(Duration(i)*Millisecond, func() { fired++ })
		}
		p := NewPacer(s, scale, 10*Millisecond)
		clk := &fakeClock{}
		p.SetClock(clk.read)
		if got := p.Target(); got < 0 {
			t.Errorf("scale %v: target %v before any wall time passed", scale, got)
		}
		clk.tick(10 * time.Millisecond)
		if got := p.Target(); got < 10*Millisecond {
			t.Errorf("scale %v: target %v after 10ms of wall time", scale, got)
		}
		if got := p.Advance(); got != 10*Millisecond || fired != 5 {
			t.Errorf("scale %v: Advance reached %v and fired %d events, want 10ms and 5", scale, got, fired)
		}
		for range 3 {
			clk.tick(time.Millisecond)
			p.Advance()
		}
		if f := p.Forgiven(); f < 0 {
			t.Errorf("scale %v: forgiven %v after four advances", scale, f)
		}
	}
}

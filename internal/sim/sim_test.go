package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(50, func() { got = append(got, i) })
	}
	s.RunAll()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events not FIFO: %v", got)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.Schedule(10, func() { fired = true })
	s.Cancel(ev)
	s.Cancel(ev) // double-cancel is a no-op
	s.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
	if s.Processed != 0 {
		t.Fatalf("Processed = %d, want 0", s.Processed)
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.Schedule(20, func() { fired = true })
	s.Schedule(10, func() { s.Cancel(ev) })
	s.RunAll()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunHorizon(t *testing.T) {
	s := New(1)
	ran := 0
	s.Schedule(10, func() { ran++ })
	s.Schedule(100, func() { ran++ })
	s.Run(50)
	if ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want horizon 50", s.Now())
	}
	s.Run(200)
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestRunAdvancesToHorizonOnDrain(t *testing.T) {
	s := New(1)
	s.Schedule(5, func() {})
	s.Run(1000)
	if s.Now() != 1000 {
		t.Fatalf("clock = %v, want 1000 after drain", s.Now())
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	s := New(1)
	var at Time = -1
	s.Schedule(100, func() {
		s.At(10, func() { at = s.Now() }) // 10 < now=100
	})
	s.RunAll()
	if at != 100 {
		t.Fatalf("past-scheduled event fired at %v, want clamped to 100", at)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	s.Schedule(-5, func() { fired = s.Now() })
	s.RunAll()
	if fired != 0 {
		t.Fatalf("negative delay fired at %v, want 0", fired)
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	ran := 0
	s.Schedule(1, func() { ran++; s.Stop() })
	s.Schedule(2, func() { ran++ })
	s.RunAll()
	if ran != 1 {
		t.Fatalf("Stop did not halt the loop: ran=%d", ran)
	}
	// A subsequent Run picks the remaining event up.
	s.RunAll()
	if ran != 2 {
		t.Fatalf("run after Stop did not resume: ran=%d", ran)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New(1)
	var order []Time
	s.Schedule(10, func() {
		order = append(order, s.Now())
		s.Schedule(5, func() { order = append(order, s.Now()) })
	})
	s.RunAll()
	if len(order) != 2 || order[0] != 10 || order[1] != 15 {
		t.Fatalf("nested scheduling broken: %v", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		var fired []Time
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			s.Schedule(Duration(rng.Int63n(1_000_000)), func() {
				fired = append(fired, s.Now())
			})
		}
		s.RunAll()
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: executing any batch of randomly timed events yields a
// non-decreasing observation of the clock.
func TestMonotoneClockProperty(t *testing.T) {
	prop := func(delays []uint32) bool {
		s := New(3)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			s.Schedule(Duration(d%10_000_000), func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.RunAll()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: heap ordering matches sort order for arbitrary times.
func TestHeapMatchesSortProperty(t *testing.T) {
	prop := func(delays []uint32) bool {
		s := New(3)
		var fired []Time
		want := make([]Time, 0, len(delays))
		for _, d := range delays {
			at := Time(d % 1_000_000)
			want = append(want, at)
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.RunAll()
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetStop(t *testing.T) {
	s := New(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Reset(10)
	tm.Reset(20) // supersedes
	s.Run(15)
	if fired != 0 {
		t.Fatal("superseded timer fired early")
	}
	s.Run(25)
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	tm.Reset(5)
	tm.Stop()
	s.Run(100)
	if fired != 1 {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerArmIfIdle(t *testing.T) {
	s := New(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.ArmIfIdle(10)
	tm.ArmIfIdle(1) // ignored: already armed
	s.Run(5)
	if fired != 0 {
		t.Fatal("ArmIfIdle rearmed a pending timer")
	}
	s.Run(20)
	if fired != 1 {
		t.Fatalf("fired=%d, want 1", fired)
	}
}

func TestTimerDeadline(t *testing.T) {
	s := New(1)
	tm := NewTimer(s, func() {})
	tm.Reset(123)
	if got := tm.Deadline(); got != 123 {
		t.Fatalf("Deadline = %v, want 123", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(Duration(i%1000), func() {})
		if s.Pending() > 10000 {
			s.Run(s.Now() + 500)
		}
	}
	s.RunAll()
}

// TestScheduleFireReuseZeroAlloc pins the event free list: once the pool is
// warm, a schedule→fire→recycle round trip performs no heap allocations.
func TestScheduleFireReuseZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	round := func() {
		s.ScheduleFunc(Microsecond, fn)
		s.ScheduleFunc(2*Microsecond, fn)
		s.RunAll()
	}
	round() // warm the free list
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("schedule/fire/reuse: %v allocs/op, want 0", n)
	}
}

// TestEventRecycling checks the free list actually recycles: after many
// sequential schedule→fire cycles the simulator has allocated only as many
// events as the peak number simultaneously pending.
func TestEventRecycling(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.ScheduleFunc(Duration(i)*Microsecond, func() {})
	}
	s.RunAll()
	if got := s.Allocated(); got > 1000 {
		t.Fatalf("allocated %d events for 1000 pending", got)
	}
	before := s.Allocated()
	for i := 0; i < 10000; i++ {
		s.ScheduleFunc(Microsecond, func() {})
		s.RunAll()
	}
	if got := s.Allocated(); got != before {
		t.Fatalf("sequential cycles grew the event population %d -> %d", before, got)
	}
}

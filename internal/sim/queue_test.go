package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// The queue-order tests drive the simulator and a reference model — a slice
// kept sorted by (when, seq) — with the same script of operations and compare
// what fired, the clock, Pending and Processed after every step. The script is
// a byte string so the same driver serves the seeded differential test and
// the native fuzz target.

// refEvent is one pending event of the reference model.
type refEvent struct {
	when Time
	seq  uint64
	id   int
}

// Event ids: a scripted event has a small non-negative id, the child a
// spawner schedules has its parent's id plus childBase, and the expiry events
// of the model's timers count up from timerBase. A timer's callback is
// recorded in the fired sequence as -1-index.
const (
	childBase = 1 << 20
	timerBase = 1 << 21
	numTimers = 4
)

// action is what a scripted event does when it fires, beyond being recorded.
type action struct {
	stop  bool // call Stop
	spawn bool // schedule one more event, child from now
	child Duration
}

// refTimer mirrors Timer's lazy rearm: ev is the id of its pending expiry
// event (0 when idle), which may fire before deadline and then re-arms.
type refTimer struct {
	ev       int
	deadline Time
}

// ref is the reference model of the queue and of the timers bound to it.
type ref struct {
	now       Time
	seq       uint64
	processed uint64
	stopped   bool
	pending   []refEvent // sorted by (when, seq)
	fired     []int
	timers    [numTimers]refTimer
	timerOf   map[int]int // pending timer event id → timer index
	nextTimer int
	actions   map[int]action
}

func (m *ref) at(t Time, id int) {
	if t < m.now {
		t = m.now
	}
	m.seq++
	m.pending = append(m.pending, refEvent{t, m.seq, id})
	sort.Slice(m.pending, func(i, j int) bool {
		a, b := m.pending[i], m.pending[j]
		return a.when < b.when || a.when == b.when && a.seq < b.seq
	})
}

func (m *ref) cancel(id int) {
	for i, e := range m.pending {
		if e.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
	panic("reference model: cancel of an event that is not pending")
}

func (m *ref) armTimer(i int, at Time) {
	m.nextTimer++
	id := timerBase + m.nextTimer
	m.timers[i].ev = id
	m.timerOf[id] = i
	m.at(at, id)
}

func (m *ref) resetTimer(i int, at Time) {
	tm := &m.timers[i]
	tm.deadline = at
	if tm.ev == 0 {
		m.armTimer(i, at)
		return
	}
	for _, e := range m.pending {
		if e.id == tm.ev && e.when <= at {
			return // lazy: the pending expiry re-arms when it fires
		}
	}
	m.stopTimer(i)
	m.armTimer(i, at)
}

func (m *ref) stopTimer(i int) {
	if id := m.timers[i].ev; id != 0 {
		m.cancel(id)
		delete(m.timerOf, id)
		m.timers[i].ev = 0
	}
}

// run mirrors Simulator.run: fire in order until nothing is due or Stop.
func (m *ref) run(until Time) {
	m.stopped = false
	for !m.stopped && len(m.pending) > 0 && m.pending[0].when <= until {
		e := m.pending[0]
		m.pending = m.pending[1:]
		m.now = e.when
		m.processed++
		if i, ok := m.timerOf[e.id]; ok {
			delete(m.timerOf, e.id)
			m.timers[i].ev = 0
			if d := m.timers[i].deadline; d > m.now {
				m.armTimer(i, d)
			} else {
				m.fired = append(m.fired, -1-i)
			}
			continue
		}
		m.fired = append(m.fired, e.id)
		a := m.actions[e.id]
		if a.spawn {
			m.at(m.now+a.child, e.id+childBase)
		}
		if a.stop {
			m.stopped = true
		}
	}
}

func (m *ref) runTo(until Time) {
	m.run(until)
	if !m.stopped && m.now < until {
		m.now = until
	}
}

// checkQueue asserts the queue's structural invariants: every wheel resident
// inside the window, the sorted slot lists and their back links, the
// occupancy bitmap, the wheel count and the heap's order and indices.
func checkQueue(t *testing.T, s *Simulator) {
	t.Helper()
	cur, n := slotOf(s.Now()), 0
	for i, head := range s.wheel {
		if occ := s.occ[i>>6]>>(i&63)&1 == 1; occ != (head != nil) {
			t.Fatalf("slot %d: occupancy bit %v, head %v", i, occ, head)
		}
		if head == nil {
			continue
		}
		var prev *Event
		for e := head; e != nil; prev, e = e, e.next {
			n++
			slot := slotOf(e.when)
			if e.index != inWheel || slot < cur || slot >= cur+wheelSlots || int(slot&wheelMask) != i {
				t.Fatalf("slot %d holds %+v with the clock in slot %d", i, *e, cur)
			}
			if prev != nil && (e.prev != prev || !eventLess(prev, e)) {
				t.Fatalf("slot %d: %+v follows %+v", i, *e, *prev)
			}
		}
		if head.prev != prev {
			t.Fatalf("slot %d: the head's prev is not the tail", i)
		}
	}
	if n != s.nWheel {
		t.Fatalf("wheel holds %d events, nWheel says %d", n, s.nWheel)
	}
	for i, e := range s.pq {
		if int(e.index) != i || e.when < s.Now() {
			t.Fatalf("heap[%d] = %+v at %v", i, *e, s.Now())
		}
		if i > 0 && eventLess(e, s.pq[(i-1)/2]) {
			t.Fatalf("heap[%d] sorts before its parent", i)
		}
	}
}

// script reads a byte string as operands; an exhausted script yields zeros.
type script struct {
	data []byte
	pos  int
}

func (r *script) byte() int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

// childDelays are what a spawner's child waits: zero, inside the slot, one
// slot on, a link's propagation and serialization, the window's edge, far.
var childDelays = [...]Duration{0, 1, 63, 64, 5 * Microsecond, 7200,
	wheelSlots<<slotShift - 1, wheelSlots << slotShift, wheelSlots<<slotShift + 64, Millisecond}

// runScript drives a fresh simulator and the model through data.
func runScript(t *testing.T, data []byte) {
	r := &script{data: data}
	s := New(1)
	m := &ref{timerOf: map[int]int{}, actions: map[int]action{}}
	var fired []int
	type handle struct {
		id int
		ev *Event
	}
	var live []handle // scripted events still pending, in scheduling order
	forget := func(id int) {
		for i, h := range live {
			if h.id == id {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	var timers [numTimers]*Timer
	for i := range timers {
		timers[i] = NewTimer(s, func() { fired = append(fired, -1-i) })
	}
	lastWhen := Time(0)

	// when draws an absolute time: now, the last one drawn, inside the slot,
	// a link delay ahead, the window's edge −1/0/+1 slots, or far.
	when := func() Time {
		now := s.Now()
		var t Time
		switch k := r.byte() % 8; k {
		case 0:
			t = now
		case 1:
			t = lastWhen
		case 2:
			t = now + Duration(r.byte()%64)
		case 3:
			t = now + Duration(r.byte())*40
		case 4, 5, 6:
			t = Time(slotOf(now)+wheelSlots+int64(k)-5)<<slotShift + Duration(r.byte()%64)
		default:
			t = now + Duration(r.byte()<<8|r.byte())*16*Microsecond
		}
		lastWhen = t
		return t
	}
	schedule := func(id int, at Time, a action) {
		m.actions[id] = a
		m.at(at, id)
		live = append(live, handle{id, s.At(at, func() {
			fired = append(fired, id)
			forget(id)
			if a.spawn {
				s.At(s.Now()+a.child, func() { fired = append(fired, id+childBase) })
			}
			if a.stop {
				s.Stop()
			}
		})})
	}

	for step := 0; r.pos < len(r.data); step++ {
		op := r.byte() % 16
		switch op {
		case 0, 1, 2, 3, 4:
			schedule(step, when(), action{})
		case 5:
			schedule(step, when(), action{spawn: true, child: childDelays[r.byte()%len(childDelays)]})
		case 6:
			schedule(step, when(), action{stop: true})
		case 7, 8:
			if len(live) > 0 {
				h := live[r.byte()%len(live)]
				s.Cancel(h.ev)
				m.cancel(h.id)
				forget(h.id)
			}
		case 9, 10:
			i, at := r.byte()%numTimers, when()
			timers[i].ResetAt(at)
			m.resetTimer(i, at)
		case 11:
			i := r.byte() % numTimers
			timers[i].Stop()
			m.stopTimer(i)
		case 12:
			until := when()
			s.Run(until)
			m.runTo(until)
		case 13:
			// A horizon between two pending events (or on the last one).
			until := s.Now()
			if n := len(m.pending); n > 0 {
				k := r.byte() % n
				until = m.pending[k].when
				if k+1 < n {
					until += (m.pending[k+1].when - until) / 2
				}
			}
			s.Run(until)
			m.runTo(until)
		case 14:
			// A horizon in the past fires nothing and leaves the clock alone.
			until := s.Now() - Duration(r.byte())
			s.Run(until)
			m.runTo(until)
		case 15:
			s.RunAll()
			m.run(math.MaxInt64)
		}

		if len(fired)+len(m.fired) > 0 && !reflect.DeepEqual(fired, m.fired) {
			t.Fatalf("step %d op %d: fired %v, model %v", step, op, fired, m.fired)
		}
		fired, m.fired = fired[:0], m.fired[:0]
		if s.Now() != m.now || s.Pending() != len(m.pending) || s.Processed != m.processed {
			t.Fatalf("step %d op %d: now=%d pending=%d processed=%d, model %d/%d/%d", step, op,
				s.Now(), s.Pending(), s.Processed, m.now, len(m.pending), m.processed)
		}
		checkQueue(t, s)
	}
}

// queueSeeds are scripts that reach each structure transition by
// construction; FuzzEventQueueOrder starts from them and from testdata/fuzz.
var queueSeeds = [][]byte{
	{},
	// Three events on one when, a run to it.
	{0, 3, 10, 0, 1, 0, 1, 12, 1},
	// Window edge −1/0/+1, then RunAll.
	{0, 4, 0, 0, 5, 0, 0, 6, 0, 15},
	// A far event, a run that stops short of it, a near one, RunAll.
	{0, 7, 0, 2, 12, 7, 0, 1, 0, 3, 9, 15},
	// Timer armed far, moved into the window, stopped; a second left to fire.
	{9, 0, 7, 1, 0, 9, 0, 3, 50, 11, 0, 10, 1, 7, 0, 9, 15},
	// Spawners at the window edge and a stopper between them.
	{5, 3, 100, 6, 6, 3, 120, 5, 3, 140, 7, 15, 15},
	// Cancel of a head, a middle and a tail of one slot; a past horizon.
	{0, 2, 1, 0, 2, 2, 0, 2, 3, 7, 1, 7, 0, 7, 0, 14, 9, 13, 0, 15},
}

func FuzzEventQueueOrder(f *testing.F) {
	for _, seed := range queueSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Long scripts buy the engine nothing and slow its minimizer down;
		// TestQueueOrderDifferential runs the long ones.
		if len(data) > 512 {
			data = data[:512]
		}
		runScript(t, data)
	})
}

// TestQueueOrderDifferential runs the checked-in scripts and seeded random
// ones through the driver.
func TestQueueOrderDifferential(t *testing.T) {
	for _, seed := range queueSeeds {
		runScript(t, seed)
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		if seed%2 == 0 {
			// Mostly scheduling, few runs: a deep queue.
			for i := range data {
				if op := data[i] % 16; op >= 12 && rng.Intn(4) > 0 {
					data[i] = byte(rng.Intn(7))
				}
			}
		}
		runScript(t, data)
	}
}

func TestQueueStructureTransitions(t *testing.T) {
	const window = Duration(wheelSlots << slotShift)
	type tc struct {
		name  string
		build func(s *Simulator, rec func(id int) func())
		want  []int
	}
	for _, c := range []tc{
		{
			// The heap event was queued as far; once the clock is close it
			// shares slot 1 with wheel residents on either side of it.
			name: "far event in an occupied slot",
			build: func(s *Simulator, rec func(int) func()) {
				far := window + 64 + 20
				s.At(far, rec(1))
				s.At(window, func() { // cur advances; the slot of far is now in the window
					s.At(far-10, rec(0))
					s.At(far, rec(2)) // same when as the heap event, later seq
					s.At(far+10, rec(3))
				})
			},
			want: []int{0, 1, 2, 3},
		},
		{
			name: "far event ahead of a later wheel slot",
			build: func(s *Simulator, rec func(int) func()) {
				s.At(window+100, rec(0))
				s.At(window, func() { s.At(window+5000, rec(1)) })
			},
			want: []int{0, 1},
		},
		{
			name: "one second over an empty wheel",
			build: func(s *Simulator, rec func(int) func()) {
				s.At(10, rec(0))
				s.At(Second, func() {
					rec(1)()
					s.At(Second+5000, rec(3))
					s.At(Second+64, rec(2))
				})
				s.At(2*Second, rec(4))
			},
			want: []int{0, 1, 2, 3, 4},
		},
		{
			name: "timer moved from the heap into the wheel",
			build: func(s *Simulator, rec func(int) func()) {
				tm := NewTimer(s, rec(1))
				tm.Reset(Millisecond)
				s.At(100, rec(0))
				s.At(300, rec(2))
				if s.nWheel != 2 || len(s.pq) != 1 {
					panic("the timer is not in the heap")
				}
				tm.Reset(200)
				if s.nWheel != 3 || len(s.pq) != 0 {
					panic("the timer did not move into the wheel")
				}
			},
			want: []int{0, 1, 2},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(1)
			var fired []int
			c.build(s, func(id int) func() { return func() { fired = append(fired, id) } })
			checkQueue(t, s)
			s.RunAll()
			if !reflect.DeepEqual(fired, c.want) {
				t.Fatalf("fired %v, want %v", fired, c.want)
			}
			if s.Pending() != 0 {
				t.Fatalf("%d events left", s.Pending())
			}
			checkQueue(t, s)
		})
	}
}

// TestCrowdedSlotInsertCost: 100 k events inside one 64 ns slot cost O(1)
// each when they share a when (they append at the tail) and O(log n) each when
// most are earlier than what the slot already holds (the walk gives up after
// maxSlotWalk residents and the heap takes the event). A list walked from the
// head, or without a bound, would make one of the two quadratic — minutes,
// not milliseconds.
func TestCrowdedSlotInsertCost(t *testing.T) {
	const n = 100_000
	for _, c := range []struct {
		name     string
		when     func(i int) Time
		allWheel bool // every insert is cheap enough for the wheel
	}{
		{"one when", func(int) Time { return 1000 }, true},
		{"descending", func(i int) Time { return 1000 + 63 - Time(i%64) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(1)
			fired, lastWhen, lastI := 0, Time(0), 0
			start := time.Now()
			for i := 0; i < n; i++ {
				s.At(c.when(i), func() {
					if w := s.Now(); w < lastWhen || w == lastWhen && i < lastI {
						t.Fatalf("event %d at %v fired after event %d at %v", i, w, lastI, lastWhen)
					}
					fired, lastWhen, lastI = fired+1, s.Now(), i
				})
			}
			if c.allWheel != (s.nWheel == n) {
				t.Fatalf("%d of %d events in the wheel", s.nWheel, n)
			}
			checkQueue(t, s)
			s.RunAll()
			if fired != n {
				t.Fatalf("fired %d of %d", fired, n)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("%d events in one slot took %v", n, d)
			}
		})
	}
}

// TestRunNeverRewindsClock: a horizon before Now() fires nothing and leaves
// the clock where it is, whether or not anything is queued. The wheel's
// window invariant (cur <= slot of the clock) rests on it.
func TestRunNeverRewindsClock(t *testing.T) {
	for _, c := range []struct {
		name   string
		queued bool
		run    func(s *Simulator)
	}{
		{"Run/empty", false, func(s *Simulator) { s.Run(2 * Microsecond) }},
		{"Run/queued", true, func(s *Simulator) { s.Run(2 * Microsecond) }},
		{"RunFor/empty", false, func(s *Simulator) { s.RunFor(-3 * Microsecond) }},
		{"RunFor/queued", true, func(s *Simulator) { s.RunFor(-3 * Microsecond) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(1)
			fired := false
			if c.queued {
				s.Schedule(10*Microsecond, func() { fired = true })
			}
			s.Run(5 * Microsecond)
			c.run(s)
			if s.Now() != 5*Microsecond {
				t.Fatalf("clock = %v after a horizon in the past, want 5.000us", s.Now())
			}
			checkQueue(t, s)
			s.Run(20 * Microsecond)
			if fired != c.queued || s.Now() != 20*Microsecond {
				t.Fatalf("fired=%v clock=%v after running on", fired, s.Now())
			}
		})
	}
}

// The two size pins keep the queue's memory where the benchmark's alloc_mb
// and heap_live_mb bounds need it: fabric-stride allocates under 1 MB in
// all, so an Event in the 64-byte class or a 64 KB slot array is a visible
// share of it.

func TestEventSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 48 {
		t.Fatalf("Event is %d bytes, want at most 48 (the allocator's next class is 64)", n)
	}
}

func TestSimulatorSize(t *testing.T) {
	if n := unsafe.Sizeof(Simulator{}); n > 2304 {
		t.Fatalf("Simulator is %d bytes, want at most 2304", n)
	}
}

// BenchmarkHopModel is the hold model with the delays the simulated
// workloads were counted to schedule: 320 pending events, each firing
// schedules one more after 1.2 µs (a 1500-byte serialization), 5 µs (a
// propagation delay) or 7.2 µs (a 9 KB serialization), and one in twenty
// after 1–200 ms (RTO, delayed ACK, TIME_WAIT). BenchmarkScheduleRun's
// delays are uniform and say nothing about this mix.
func BenchmarkHopModel(b *testing.B) {
	s := New(1)
	rng := rand.New(rand.NewSource(1))
	near := [...]Duration{1200, 5 * Microsecond, 7200}
	var hop func()
	hop = func() {
		d := near[rng.Intn(len(near))]
		if rng.Intn(20) == 0 {
			d = Millisecond + Duration(rng.Int63n(int64(199*Millisecond)))
		}
		s.ScheduleFunc(d, hop)
	}
	for i := 0; i < 320; i++ {
		hop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := s.Processed
	for s.Processed-start < uint64(b.N) {
		s.RunFor(Millisecond)
	}
}

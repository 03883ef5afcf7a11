package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// dlItem is one owner: in the Timer world it has a Timer, in the Deadlines
// world a handle.
type dlItem struct {
	id    int
	h     Deadline
	timer *Timer
	fires int
}

func dlHandle(it *dlItem) *Deadline { return &it.h }

// dlWorld is one side of the differential: n items with a Timer each, or the
// same n items on one Deadlines, plus plain events, on a simulator of its own.
// Everything that fires is logged with the clock.
type dlWorld struct {
	s     *Simulator
	d     *Deadlines[*dlItem]
	items []*dlItem
	rng   *rand.Rand // for the callbacks' choices; seeded alike on both sides
	log   []string
	armed func(*dlItem) bool
}

// dlDurations mixes ties (0, equal small values) with delays inside the
// wheel's window and past it, so entries, plain events and probes often share
// an instant.
var dlDurations = []Duration{0, 1, 2, 64, 100, 1000, 5000, 20000, 100000}

func newDLWorld(timers bool, n int, seed int64) *dlWorld {
	w := &dlWorld{s: New(1), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		it := &dlItem{id: i}
		if timers {
			it.timer = NewTimer(w.s, func() { w.fired(it) })
		}
		w.items = append(w.items, it)
	}
	w.d = NewDeadlines(w.s, w.fired, dlHandle)
	w.armed = func(it *dlItem) bool { return it.h.Pending() }
	if timers {
		w.armed = func(it *dlItem) bool { return it.timer.Pending() }
	}
	return w
}

func (w *dlWorld) reset(it *dlItem, d Duration) {
	if it.timer != nil {
		it.timer.Reset(d)
	} else {
		w.d.Reset(it, d)
	}
}

func (w *dlWorld) resetAt(it *dlItem, at Time) {
	if it.timer != nil {
		it.timer.ResetAt(at)
	} else {
		w.d.ResetAt(it, at)
	}
}

func (w *dlWorld) stop(it *dlItem) {
	if it.timer != nil {
		it.timer.Stop()
	} else {
		w.d.Stop(it)
	}
}

// fired is an item's callback: log it, and for the first few expiries re-arm
// it, push another item later or stop one, as the callback's draw says.
func (w *dlWorld) fired(it *dlItem) {
	w.log = append(w.log, fmt.Sprintf("%v item %d", w.s.Now(), it.id))
	it.fires++
	if it.fires > 4 {
		return
	}
	other := w.items[w.rng.Intn(len(w.items))]
	switch w.rng.Intn(4) {
	case 0:
		w.reset(it, dlDurations[w.rng.Intn(len(dlDurations))])
	case 1:
		w.reset(other, dlDurations[w.rng.Intn(len(dlDurations))])
	case 2:
		w.stop(other)
	}
}

func (w *dlWorld) plain(tag string, d Duration) {
	w.s.Schedule(d, func() { w.log = append(w.log, fmt.Sprintf("%v %s", w.s.Now(), tag)) })
}

// TestDeadlinesMatchTimers drives the same random operations into n items
// with a Timer each and into n items on one Deadlines: resets later and
// earlier, ResetAt into the past, stops, callbacks that re-arm and touch other
// items, and plain events at the same instants. After every step both sides
// must have drawn the same sequence numbers and processed the same events, the
// Deadlines side must hold one pending event for all its armed items, and a
// probe queued after each step must fire at the same place in both logs.
func TestDeadlinesMatchTimers(t *testing.T) {
	const n, steps = 12, 3000
	for seed := int64(1); seed <= 8; seed++ {
		a, b := newDLWorld(true, n, seed), newDLWorld(false, n, seed)
		script := rand.New(rand.NewSource(seed))
		for step := 0; step < steps; step++ {
			i := script.Intn(n)
			d := dlDurations[script.Intn(len(dlDurations))]
			switch op := script.Intn(10); {
			case op < 4:
				a.reset(a.items[i], d)
				b.reset(b.items[i], d)
			case op < 6:
				at := a.s.Now() + d - Duration(script.Intn(200))
				a.resetAt(a.items[i], at)
				b.resetAt(b.items[i], at)
			case op < 8:
				a.stop(a.items[i])
				b.stop(b.items[i])
			default:
				tag := fmt.Sprintf("plain %d", step)
				a.plain(tag, d)
				b.plain(tag, d)
			}
			probe := fmt.Sprintf("probe %d", step)
			pd := dlDurations[script.Intn(len(dlDurations))]
			a.plain(probe, pd)
			b.plain(probe, pd)
			run := Duration(script.Intn(3000))
			a.s.RunFor(run)
			b.s.RunFor(run)

			if a.s.seq != b.s.seq || a.s.Processed != b.s.Processed {
				t.Fatalf("seed %d step %d: seq %d vs %d, processed %d vs %d",
					seed, step, a.s.seq, b.s.seq, a.s.Processed, b.s.Processed)
			}
			armed := 0
			for j := range a.items {
				if a.armed(a.items[j]) != b.armed(b.items[j]) {
					t.Fatalf("seed %d step %d: item %d armed %v with a Timer, %v on Deadlines",
						seed, step, j, a.armed(a.items[j]), b.armed(b.items[j]))
				}
				if a.armed(a.items[j]) {
					armed++
				}
			}
			if shared := min(armed, 1); b.s.Pending() != a.s.Pending()-armed+shared {
				t.Fatalf("seed %d step %d: %d pending on Deadlines, want %d (%d with %d Timers armed)",
					seed, step, b.s.Pending(), a.s.Pending()-armed+shared, a.s.Pending(), armed)
			}
		}
		a.s.RunAll()
		b.s.RunAll()
		if !slices.Equal(a.log, b.log) || a.s.Processed != b.s.Processed || a.s.Now() != b.s.Now() {
			for k := range min(len(a.log), len(b.log)) {
				if a.log[k] != b.log[k] {
					t.Fatalf("seed %d: firing %d is %q with Timers, %q on Deadlines", seed, k, a.log[k], b.log[k])
				}
			}
			t.Fatalf("seed %d: %d firings with Timers, %d on Deadlines", seed, len(a.log), len(b.log))
		}
		if b.s.Pending() != 0 || len(b.d.heap) != 0 {
			t.Fatalf("seed %d: drained Deadlines holds %d entries, %d events pending", seed, len(b.d.heap), b.s.Pending())
		}
	}
}

// TestDeadlinesAdopt drives owners that draw their own stamps (StampAt) and
// hand them to a Deadlines later in the same event, in the reverse order and
// with plain events drawn in between, as a TIME_WAIT record hands its stamp
// over when its wait leaves arm order. They must fire where Timers armed at
// the draws fire: Adopt draws nothing, and a later Reset, the fired
// callbacks' included, re-arms the adopted entry as it would a Timer.
func TestDeadlinesAdopt(t *testing.T) {
	const n, steps = 12, 2000
	for seed := int64(1); seed <= 4; seed++ {
		a, b := newDLWorld(true, n, seed), newDLWorld(false, n, seed)
		script := rand.New(rand.NewSource(seed))
		for step := 0; step < steps; step++ {
			var held []*dlItem
			var stamps []Stamp
			for range 1 + script.Intn(4) {
				i := script.Intn(n)
				d := dlDurations[script.Intn(len(dlDurations))]
				switch it := b.items[i]; {
				case slices.Contains(held, it):
					continue
				case it.h.Pending():
					a.reset(a.items[i], d)
					b.reset(it, d)
					continue
				}
				a.reset(a.items[i], d)
				held, stamps = append(held, b.items[i]), append(stamps, b.s.StampAt(b.s.Now()+d))
			}
			tag := fmt.Sprintf("plain %d", step)
			d := dlDurations[script.Intn(len(dlDurations))]
			a.plain(tag, d)
			b.plain(tag, d)
			seq := b.s.seq
			for j := len(held) - 1; j >= 0; j-- {
				b.d.Adopt(held[j], stamps[j])
			}
			if b.s.seq != seq {
				t.Fatalf("seed %d step %d: Adopt drew %d seqs", seed, step, b.s.seq-seq)
			}
			run := Duration(script.Intn(3000))
			a.s.RunFor(run)
			b.s.RunFor(run)

			armed := 0
			for j := range a.items {
				if a.armed(a.items[j]) {
					armed++
				}
			}
			if a.s.seq != b.s.seq || a.s.Processed != b.s.Processed || b.s.Pending() != a.s.Pending()-armed+min(armed, 1) {
				t.Fatalf("seed %d step %d: seq %d vs %d, processed %d vs %d, pending %d vs %d with %d Timers armed",
					seed, step, a.s.seq, b.s.seq, a.s.Processed, b.s.Processed, a.s.Pending(), b.s.Pending(), armed)
			}
		}
		a.s.RunAll()
		b.s.RunAll()
		if !slices.Equal(a.log, b.log) || a.s.Processed != b.s.Processed {
			t.Fatalf("seed %d: %d firings with Timers, %d adopted; logs differ", seed, len(a.log), len(b.log))
		}
	}
}

// TestDeadlinesIdleAllocatesNothing: stopping owners that are not armed
// allocates nothing and queues nothing. (An owner that may never arm one, as
// most of incast47's stacks and vSwitches, makes its Deadlines on the first
// arm: TestVTimeoutsShareOneEvent, TestTimeWaitRecord.)
func TestDeadlinesIdleAllocatesNothing(t *testing.T) {
	s := New(1)
	d := NewDeadlines(s, func(*dlItem) {}, dlHandle)
	it := new(dlItem)
	if n := testing.AllocsPerRun(100, func() { d.Stop(it) }); n != 0 {
		t.Fatalf("an idle Deadlines: %v allocs/op, want 0", n)
	}
	if d.heap != nil || s.Pending() != 0 {
		t.Fatalf("an idle Deadlines holds a %d-entry heap, %d pending events", cap(d.heap), s.Pending())
	}
}

// TestDeadlinesOneEvent: k armed entries are one pending event, every owner's
// handle finds its entry as the heap moves them, and re-arming owners whose
// deadlines fired allocates nothing.
func TestDeadlinesOneEvent(t *testing.T) {
	s := New(1)
	var fired []int
	d := NewDeadlines(s, func(it *dlItem) { fired = append(fired, it.id) }, dlHandle)
	items := make([]*dlItem, 1000)
	for i := range items {
		items[i] = &dlItem{id: i}
	}
	d.Reset(items[0], Second)
	for _, it := range items[1:] {
		d.Reset(it, Millisecond+Duration(len(items)-it.id)) // the later armed, the earlier due
	}
	if s.Pending() != 1 || len(d.heap) != len(items) {
		t.Fatalf("%d armed: %d pending events, %d in the heap", len(items), s.Pending(), len(d.heap))
	}
	for _, it := range items {
		if e := d.heap[it.h-1]; e.v != it {
			t.Fatalf("item %d's handle %d finds item %d's entry", it.id, it.h, e.v.id)
		}
	}
	s.RunFor(2 * Millisecond)
	if len(fired) != len(items)-1 || fired[0] != len(items)-1 || s.Pending() != 1 || !items[0].h.Pending() {
		t.Fatalf("after the early deadlines: %d fired, first %d, %d pending", len(fired), fired[0], s.Pending())
	}
	fired = fired[:0]
	if n := testing.AllocsPerRun(100, func() {
		for _, it := range items[1:] {
			d.Reset(it, Millisecond)
		}
		s.RunFor(2 * Millisecond)
	}); n != 0 {
		t.Fatalf("re-arming fired entries: %v allocs/op, want 0", n)
	}
}

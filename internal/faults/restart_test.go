package faults

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"acdc/internal/sim"
)

// fakeTarget records the scheduler's calls with their sim timestamps.
type fakeTarget struct {
	s          *sim.Simulator
	snap       []byte
	flows      int
	saves      []sim.Time
	detaches   []sim.Time
	reattaches []sim.Time
	restarts   []sim.Time
	restored   [][]byte
}

func (f *fakeTarget) SaveSnapshot() []byte {
	f.saves = append(f.saves, f.s.Now())
	return f.snap
}
func (f *fakeTarget) Detach()   { f.detaches = append(f.detaches, f.s.Now()) }
func (f *fakeTarget) Reattach() { f.reattaches = append(f.reattaches, f.s.Now()) }
func (f *fakeTarget) Restart(snap []byte) {
	f.restarts = append(f.restarts, f.s.Now())
	f.restored = append(f.restored, snap)
}
func (f *fakeTarget) FlowCount() int { return f.flows }

func TestParseRestart(t *testing.T) {
	cases := []struct {
		in   string
		want RestartPlan
	}{
		{"warm", RestartPlan{Mode: RestartWarm, At: sim.Millisecond}},
		{"cold@200us", RestartPlan{Mode: RestartCold, At: 200 * sim.Microsecond}},
		{"stale", RestartPlan{Mode: RestartStale, At: sim.Millisecond,
			StaleAge: 100 * sim.Microsecond}},
		{"stale@1ms,age=500us", RestartPlan{Mode: RestartStale, At: sim.Millisecond,
			StaleAge: 500 * sim.Microsecond}},
		{"warm@1ms,host=0,host=3,down=50us", RestartPlan{Mode: RestartWarm,
			At: sim.Millisecond, Downtime: 50 * sim.Microsecond, Hosts: []int{0, 3}}},
		{"cold,every=2ms", RestartPlan{Mode: RestartCold, At: sim.Millisecond,
			Every: 2 * sim.Millisecond}},
		{" warm @ 2ms , down = 1us ", RestartPlan{Mode: RestartWarm,
			At: 2 * sim.Millisecond, Downtime: sim.Microsecond}},
	}
	for _, tc := range cases {
		got, err := ParseRestart(tc.in)
		if err != nil {
			t.Fatalf("ParseRestart(%q): %v", tc.in, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseRestart(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseRestartErrors(t *testing.T) {
	for _, in := range []string{
		"", "bbr", "warm@", "warm@-1ms", "warm@nonsense",
		"warm,down", "warm,down=xyz", "warm,age=-5us", "warm,host=-1",
		"warm,host=a", "warm,color=red", "stale,age=0",
	} {
		if _, err := ParseRestart(in); err == nil {
			t.Fatalf("ParseRestart(%q) accepted", in)
		}
	}
	for in, near := range map[string]string{"wram": `"warm"`, "warm,dwon=1us": `"down"`, "warm,=1us": "(have down,"} {
		if _, err := ParseRestart(in); err == nil || !strings.Contains(err.Error(), near) {
			t.Errorf("ParseRestart(%q): %v, want it to mention %s", in, err, near)
		}
	}
}

func TestRestartPlanString(t *testing.T) {
	cases := []struct {
		plan RestartPlan
		want string
	}{
		{RestartPlan{Mode: RestartWarm, At: sim.Millisecond}, "warm@1.000ms"},
		{RestartPlan{Mode: RestartStale, At: sim.Millisecond,
			StaleAge: 100 * sim.Microsecond}, "stale@1.000ms,age=100.000us"},
		{RestartPlan{Mode: RestartCold, At: 200 * sim.Microsecond,
			Downtime: 50 * sim.Microsecond, Every: 2 * sim.Millisecond,
			Hosts: []int{0, 3}}, "cold@200.000us,down=50.000us,every=2.000ms,host=0,host=3"},
	}
	for _, tc := range cases {
		if got := tc.plan.String(); got != tc.want {
			t.Fatalf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestRestartVariantsRegistry(t *testing.T) {
	want := []string{"cold", "stale", "warm"}
	if got := names(restartVariants); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart variants = %v, want %v", got, want)
	}
	p, ok := LookupRestart("stale")
	if !ok || p.Mode != RestartStale || p.At != sim.Millisecond ||
		p.StaleAge != 100*sim.Microsecond {
		t.Fatalf("LookupRestart(stale) = %+v ok=%v", p, ok)
	}
	if _, ok := LookupRestart("hot"); ok {
		t.Fatal("LookupRestart accepted an unregistered variant")
	}
}

func TestAppliesTo(t *testing.T) {
	all := RestartPlan{}
	if !all.AppliesTo(0) || !all.AppliesTo(99) {
		t.Fatal("empty Hosts must match every index")
	}
	some := RestartPlan{Hosts: []int{1, 4}}
	if !some.AppliesTo(1) || !some.AppliesTo(4) || some.AppliesTo(0) || some.AppliesTo(2) {
		t.Fatal("Hosts filter mismatched")
	}
}

// TestScheduleWarm pins the event order and timing of one warm cycle:
// checkpoint and detach at At, restore-then-reattach after Downtime, with
// the checkpoint handed back intact.
func TestScheduleWarm(t *testing.T) {
	s := sim.New(1)
	ft := &fakeTarget{s: s, snap: []byte("state"), flows: 1}
	ScheduleRestarts(s, RestartPlan{Mode: RestartWarm, At: sim.Millisecond,
		Downtime: 50 * sim.Microsecond}, []*fakeTarget{ft})
	s.RunFor(10 * sim.Millisecond)

	at := sim.Time(sim.Millisecond)
	up := at + sim.Time(50*sim.Microsecond)
	if !reflect.DeepEqual(ft.saves, []sim.Time{at}) {
		t.Fatalf("saves at %v, want [%v]", ft.saves, at)
	}
	if !reflect.DeepEqual(ft.detaches, []sim.Time{at}) {
		t.Fatalf("detaches at %v, want [%v]", ft.detaches, at)
	}
	if !reflect.DeepEqual(ft.restarts, []sim.Time{up}) ||
		!reflect.DeepEqual(ft.reattaches, []sim.Time{up}) {
		t.Fatalf("revival at restarts=%v reattaches=%v, want [%v]",
			ft.restarts, ft.reattaches, up)
	}
	if !bytes.Equal(ft.restored[0], []byte("state")) {
		t.Fatalf("warm restore got %q", ft.restored[0])
	}
}

// TestScheduleCold: no checkpoint is ever taken and the restore is nil.
func TestScheduleCold(t *testing.T) {
	s := sim.New(1)
	ft := &fakeTarget{s: s, snap: []byte("state"), flows: 1}
	ScheduleRestarts(s, RestartPlan{Mode: RestartCold, At: sim.Millisecond}, []*fakeTarget{ft})
	s.RunFor(10 * sim.Millisecond)
	if len(ft.saves) != 0 {
		t.Fatalf("cold restart checkpointed %d times", len(ft.saves))
	}
	if len(ft.restored) != 1 || ft.restored[0] != nil {
		t.Fatalf("cold restore = %v, want [nil]", ft.restored)
	}
}

// TestScheduleStale: the checkpoint is taken StaleAge before the death, not
// at it.
func TestScheduleStale(t *testing.T) {
	s := sim.New(1)
	ft := &fakeTarget{s: s, snap: []byte("old"), flows: 1}
	ScheduleRestarts(s, RestartPlan{Mode: RestartStale, At: sim.Millisecond,
		StaleAge: 300 * sim.Microsecond}, []*fakeTarget{ft})
	s.RunFor(10 * sim.Millisecond)
	pre := sim.Time(sim.Millisecond - 300*sim.Microsecond)
	if !reflect.DeepEqual(ft.saves, []sim.Time{pre}) {
		t.Fatalf("stale checkpoint at %v, want [%v]", ft.saves, pre)
	}
	if !bytes.Equal(ft.restored[0], []byte("old")) {
		t.Fatalf("stale restore got %q", ft.restored[0])
	}
}

// TestScheduleRecurring: the plan re-arms every period while FlowCount > 0
// and goes quiet once the table drains.
func TestScheduleRecurring(t *testing.T) {
	s := sim.New(1)
	ft := &fakeTarget{s: s, flows: 1}
	ScheduleRestarts(s, RestartPlan{Mode: RestartCold, At: sim.Millisecond,
		Every: sim.Millisecond}, []*fakeTarget{ft})
	// Drain the table between the 2nd revival (which arms the 3rd death at
	// 3ms) and the 3rd revival, so the 3rd revival declines to re-arm.
	s.Schedule(2500*sim.Microsecond, func() { ft.flows = 0 })
	s.RunFor(20 * sim.Millisecond)
	if len(ft.restarts) != 3 {
		t.Fatalf("recurring plan restarted %d times, want 3 (then drained)", len(ft.restarts))
	}
}

// TestScheduleMultipleTargets: one plan, several targets, same instant.
func TestScheduleMultipleTargets(t *testing.T) {
	s := sim.New(1)
	a := &fakeTarget{s: s, flows: 1}
	b := &fakeTarget{s: s, flows: 1}
	ScheduleRestarts(s, RestartPlan{Mode: RestartCold, At: sim.Millisecond}, []*fakeTarget{a, b})
	s.RunFor(10 * sim.Millisecond)
	if len(a.restarts) != 1 || len(b.restarts) != 1 || a.restarts[0] != b.restarts[0] {
		t.Fatalf("targets restarted at %v / %v, want one simultaneous restart",
			a.restarts, b.restarts)
	}
}

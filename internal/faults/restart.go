package faults

// vSwitch restart injection. The fault the link-level Profile cannot express
// is the vSwitch itself dying: in production the stateful middlebox is
// exactly the component that gets restarted (OVS upgrades, crashes, host
// agent redeploys), taking every per-flow enforcement state with it. A
// RestartPlan schedules that event on the sim clock, in three flavours of
// state recovery:
//
//	cold     the process loses everything; live flows are re-adopted
//	         mid-stream by the datapath and resynchronized conservatively.
//	warm     a checkpoint is taken at the instant of death and restored on
//	         the way up — the intended production path.
//	stale    the restored checkpoint is StaleAge old (checkpoints are
//	         periodic in practice, so the one on disk always lags the wire).
//
// During the Downtime window between death and revival the datapath hooks
// are detached, so traffic crosses a hook-less host exactly like a dead OVS
// with fail-open flows — forwarded, unenforced, unobserved.

import (
	"fmt"
	"slices"

	"acdc/internal/sim"
)

// RestartTarget is the surface the scheduler drives, from sim events on the
// simulation goroutine, which owns the target. *core.VSwitch implements it;
// the interface keeps this package below internal/core in the dependency
// graph. C is the target's checkpoint, which the scheduler holds but never
// looks inside.
type RestartTarget[C any] interface {
	// SaveSnapshot checkpoints the flow table.
	SaveSnapshot() C
	// Detach removes the datapath hooks (the process is down).
	Detach()
	// Reattach reinstalls the datapath hooks (the process is back).
	Reattach()
	// Restart discards all flow state and restores snapshot, unless it is
	// C's zero value (a cold restart).
	Restart(snapshot C)
	// FlowCount reports the current flow-table size (used to let recurring
	// restarts go quiet on a drained fabric).
	FlowCount() int
}

// RestartMode selects how much state survives the restart.
type RestartMode uint8

const (
	// RestartCold restores nothing.
	RestartCold RestartMode = iota
	// RestartWarm restores a checkpoint taken at the instant of death.
	RestartWarm
	// RestartStale restores a checkpoint StaleAge older than the death.
	RestartStale
)

// String names the mode as a spec does.
func (m RestartMode) String() string {
	for name, p := range restartVariants {
		if p.Mode == m {
			return name
		}
	}
	return fmt.Sprintf("mode(%d)", m)
}

// RestartPlan declares one scheduled vSwitch restart (optionally recurring).
type RestartPlan struct {
	Mode RestartMode
	// At is when (sim time) the vSwitch dies. Default 1ms.
	At sim.Duration
	// Downtime is how long the host runs hook-less before the vSwitch comes
	// back. Default 0 (instant revival, still an atomic state loss).
	Downtime sim.Duration
	// StaleAge is how far behind the wire the restored checkpoint is
	// (RestartStale only). Default 100µs.
	StaleAge sim.Duration
	// Every, when > 0, repeats the restart with this period for as long as
	// the target still tracks flows (a drained fabric stops restarting, so
	// run-to-completion simulations still terminate).
	Every sim.Duration
	// Hosts restricts the restart to these host indices; empty means every
	// host with an AC/DC module ("the whole fleet redeploys at once").
	Hosts []int
}

// restartVariants is the named-plan registry, mirroring the fault-profile
// registry: each name is a ready-to-run plan for the common cases.
var restartVariants = map[string]RestartPlan{
	"cold":  {Mode: RestartCold},
	"warm":  {Mode: RestartWarm},
	"stale": {Mode: RestartStale},
}

// LookupRestart returns the named variant with defaults applied.
func LookupRestart(name string) (RestartPlan, bool) {
	p, ok := restartVariants[name]
	if !ok {
		return RestartPlan{}, false
	}
	return p.withDefaults(), true
}

// withDefaults fills unset timing fields.
func (p RestartPlan) withDefaults() RestartPlan {
	if p.At == 0 {
		p.At = sim.Millisecond
	}
	if p.Mode == RestartStale && p.StaleAge == 0 {
		p.StaleAge = 100 * sim.Microsecond
	}
	return p
}

// AppliesTo reports whether host index i restarts under this plan.
func (p RestartPlan) AppliesTo(i int) bool { return len(p.Hosts) == 0 || slices.Contains(p.Hosts, i) }

// String renders the plan as ParseRestart reads it, e.g.
// "stale@1.000ms,age=100.000us".
func (p RestartPlan) String() string { return restartGrammar.render(p.Mode.String(), p) }

// restartGrammar declares a restart plan's keys.
var restartGrammar = grammar[RestartPlan]{
	what: "restart", noun: "variant", heads: restartVariants,
	at: func(p *RestartPlan) *sim.Duration { return &p.At },
	keys: []key[RestartPlan]{
		{"down", func(p *RestartPlan) any { return &p.Downtime }, "time the host runs without its vSwitch"},
		{"age", func(p *RestartPlan) any { return &p.StaleAge }, "how far a stale checkpoint lags the wire (default 100us)"},
		{"every", func(p *RestartPlan) any { return &p.Every }, "repeat with this period while flows remain"},
		{"host", func(p *RestartPlan) any { return &p.Hosts }, "restart only this host (repeatable; default every host)"},
	},
	reads: map[string][]string{
		"cold":  {"down", "every", "host"},
		"warm":  {"down", "every", "host"},
		"stale": {"down", "age", "every", "host"},
	},
}

// ParseRestart resolves a -restart flag value, "mode[@time][,key=value…]",
// where mode is a registered variant and @time defaults to 1ms: "warm",
// "cold@200us", "stale@1ms,age=500us" (see RestartHelp).
func ParseRestart(s string) (RestartPlan, error) {
	p, given, err := restartGrammar.read(s)
	if err != nil {
		return RestartPlan{}, err
	}
	if p.Mode == RestartStale && p.StaleAge == 0 && slices.Contains(given, "age") {
		// An explicit age=0 would silently become the default; reject it.
		return RestartPlan{}, fmt.Errorf("restart: stale variant needs age > 0")
	}
	return p.withDefaults(), nil
}

// RestartHelp renders the restart variants and keys as the `-restart list`
// output (same convention as ProfilesHelp).
func RestartHelp() string {
	return restartGrammar.help("vSwitch restart variants (mode[@time][,key=value...]; @time > 0, default 1ms)",
		func(name string) string {
			p, _ := LookupRestart(name)
			return p.String()
		}, "stale@1ms,age=500us,down=50us,host=0", "warm@1ms,every=2ms,host=0,host=3")
}

// ScheduleRestarts arms plan p on the sim clock for every target. Targets
// restart simultaneously (same event time), modelling a fleet-wide redeploy;
// use Hosts to restart a subset. The caller filters targets with AppliesTo.
func ScheduleRestarts[T RestartTarget[C], C any](s *sim.Simulator, p RestartPlan, targets []T) {
	p = p.withDefaults()
	for _, t := range targets {
		scheduleOne[C](s, p, t, p.At)
	}
}

// scheduleOne arms one restart cycle for one target at absolute-ish delay at
// (relative to now), and re-arms for recurring plans while the target still
// tracks flows.
func scheduleOne[C any](s *sim.Simulator, p RestartPlan, t RestartTarget[C], at sim.Duration) {
	var snap C
	if p.Mode == RestartStale {
		pre := at - p.StaleAge
		if pre < 0 {
			pre = 0
		}
		s.Schedule(pre, func() { snap = t.SaveSnapshot() })
	}
	s.Schedule(at, func() {
		if p.Mode == RestartWarm {
			snap = t.SaveSnapshot()
		}
		t.Detach()
		s.Schedule(p.Downtime, func() {
			t.Restart(snap)
			t.Reattach()
			if p.Every > 0 && t.FlowCount() > 0 {
				// Re-arm only while the target still tracks flows, so a
				// drained run-to-completion simulation terminates.
				scheduleOne(s, p, t, p.Every)
			}
		})
	})
}

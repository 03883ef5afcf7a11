package faults

// vSwitch restart injection. The fault the link-level Profile cannot express
// is the vSwitch itself dying: in production the stateful middlebox is
// exactly the component that gets restarted (OVS upgrades, crashes, host
// agent redeploys), taking every per-flow enforcement state with it. A
// RestartPlan schedules that event on the sim clock, in three flavours of
// state recovery plus a corruption probe:
//
//	cold     the process loses everything; live flows are re-adopted
//	         mid-stream by the datapath and resynchronized conservatively.
//	warm     a checkpoint is taken at the instant of death and restored on
//	         the way up — the intended production path.
//	stale    the restored checkpoint is StaleAge old (checkpoints are
//	         periodic in practice, so the one on disk always lags the wire).
//	corrupt  the warm checkpoint is bit-flipped before restore; the decoder
//	         must fail open to a cold start (snapshot_corrupt_total).
//
// During the Downtime window between death and revival the datapath hooks
// are detached, so traffic crosses a hook-less host exactly like a dead OVS
// with fail-open flows — forwarded, unenforced, unobserved.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"acdc/internal/sim"
)

// RestartTarget is the surface the scheduler drives, from sim events on the
// simulation goroutine, which owns the target. *core.VSwitch implements it;
// the interface keeps this package below internal/core in the dependency
// graph.
type RestartTarget interface {
	// SaveSnapshot checkpoints the flow table.
	SaveSnapshot() []byte
	// Detach removes the datapath hooks (the process is down).
	Detach()
	// Reattach reinstalls the datapath hooks (the process is back).
	Reattach()
	// Restart discards all flow state and, when snapshot is non-nil,
	// restores from it (corrupt snapshots fail open inside).
	Restart(snapshot []byte)
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
	// RestartCorrupt restores a bit-flipped warm checkpoint (must fail open).
	RestartCorrupt
)

// String names the mode.
func (m RestartMode) String() string {
	switch m {
	case RestartCold:
		return "cold"
	case RestartWarm:
		return "warm"
	case RestartStale:
		return "stale"
	case RestartCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("mode(%d)", m)
	}
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
	"cold":    {Mode: RestartCold},
	"warm":    {Mode: RestartWarm},
	"stale":   {Mode: RestartStale},
	"corrupt": {Mode: RestartCorrupt},
}

// RestartVariants returns the registered variant names, sorted.
func RestartVariants() []string {
	out := make([]string, 0, len(restartVariants))
	for n := range restartVariants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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
func (p RestartPlan) AppliesTo(i int) bool {
	if len(p.Hosts) == 0 {
		return true
	}
	for _, h := range p.Hosts {
		if h == i {
			return true
		}
	}
	return false
}

// String renders the plan, e.g. "stale@1ms(age=100us)".
func (p RestartPlan) String() string {
	var terms []string
	if p.Mode == RestartStale {
		terms = append(terms, fmt.Sprintf("age=%v", p.StaleAge))
	}
	if p.Downtime > 0 {
		terms = append(terms, fmt.Sprintf("down=%v", p.Downtime))
	}
	if p.Every > 0 {
		terms = append(terms, fmt.Sprintf("every=%v", p.Every))
	}
	if len(p.Hosts) > 0 {
		hs := make([]string, len(p.Hosts))
		for i, h := range p.Hosts {
			hs[i] = strconv.Itoa(h)
		}
		terms = append(terms, "hosts="+strings.Join(hs, "+"))
	}
	s := fmt.Sprintf("%s@%v", p.Mode, p.At)
	if len(terms) > 0 {
		s += "(" + strings.Join(terms, ",") + ")"
	}
	return s
}

// ParseRestart resolves a -restart flag value: "mode[@time][,key=value…]"
// where mode is a registered variant (see RestartVariants) and keys are
// down=<dur>, age=<dur>, every=<dur>, host=<idx> (repeatable). Examples:
//
//	warm                  warm restart of every vSwitch at the default 1ms
//	cold@200us            cold restart at t=200µs
//	stale@1ms,age=500us   restore a checkpoint 500µs behind the wire
//	warm@1ms,host=0,host=3,down=50us
func ParseRestart(s string) (RestartPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return RestartPlan{}, fmt.Errorf("restart: empty spec")
	}
	head, rest, hasOpts := strings.Cut(s, ",")
	name, at, hasAt := strings.Cut(strings.TrimSpace(head), "@")
	p, ok := restartVariants[strings.TrimSpace(name)]
	if !ok {
		return RestartPlan{}, fmt.Errorf("restart: unknown variant %q (have %s)",
			name, strings.Join(RestartVariants(), ", "))
	}
	if hasAt {
		d, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil || d <= 0 {
			return RestartPlan{}, fmt.Errorf("restart: bad time %q", at)
		}
		p.At = sim.Duration(d.Nanoseconds())
	}
	ageSet := false
	if hasOpts {
		for _, term := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
			if !ok {
				return RestartPlan{}, fmt.Errorf("restart: bad term %q (want key=value)", term)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch k {
			case "down", "age", "every":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return RestartPlan{}, fmt.Errorf("restart: bad duration %s=%q", k, v)
				}
				switch k {
				case "down":
					p.Downtime = sim.Duration(d.Nanoseconds())
				case "age":
					p.StaleAge = sim.Duration(d.Nanoseconds())
					ageSet = true
				case "every":
					p.Every = sim.Duration(d.Nanoseconds())
				}
			case "host":
				h, err := strconv.Atoi(v)
				if err != nil || h < 0 {
					return RestartPlan{}, fmt.Errorf("restart: bad host index %q", v)
				}
				p.Hosts = append(p.Hosts, h)
			default:
				return RestartPlan{}, fmt.Errorf("restart: unknown key %q", k)
			}
		}
	}
	if p.Mode == RestartStale && ageSet && p.StaleAge == 0 {
		// An explicit age=0 would silently become the default; reject it.
		return RestartPlan{}, fmt.Errorf("restart: stale variant needs age > 0")
	}
	return p.withDefaults(), nil
}

// Schedule arms the plan on the sim clock for every target. Targets restart
// simultaneously (same event time), modelling a fleet-wide redeploy; use
// Hosts to restart a subset. The caller filters targets with AppliesTo.
func (p RestartPlan) Schedule(s *sim.Simulator, targets []RestartTarget) {
	p = p.withDefaults()
	for _, t := range targets {
		scheduleOne(s, p, t, p.At)
	}
}

// scheduleOne arms one restart cycle for one target at absolute-ish delay at
// (relative to now), and re-arms for recurring plans while the target still
// tracks flows.
func scheduleOne(s *sim.Simulator, p RestartPlan, t RestartTarget, at sim.Duration) {
	var snap []byte
	if p.Mode == RestartStale {
		pre := at - p.StaleAge
		if pre < 0 {
			pre = 0
		}
		s.Schedule(pre, func() { snap = t.SaveSnapshot() })
	}
	s.Schedule(at, func() {
		switch p.Mode {
		case RestartWarm:
			snap = t.SaveSnapshot()
		case RestartCorrupt:
			snap = t.SaveSnapshot()
			if len(snap) > 0 {
				snap[len(snap)/2] ^= 0xff
			}
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

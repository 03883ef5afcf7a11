// Package soak hammers the long-lived service mode (internal/daemon) the way
// months of production would: tenant-churn and flash-crowd workloads keep
// flows arriving and dying while a hostile controller goroutine streams
// seeded-random policy updates (including ones that must be rejected), warm
// and cold restarts, and fault-profile flips — and a set of leak gates checks
// that nothing accumulates.
//
// The gates, each of which fails the run:
//
//   - Flow-table leak: after the workloads stop and the simulation drains
//     past the idle timeout, every vSwitch flow table must be empty. An
//     entry that survives the drain has no connection behind it — state that
//     would pin memory for the lifetime of a real hypervisor. The same goes
//     for the vSwitches' free lists of flow records: every sweep trims them
//     to the flows created since the one before, so after a drain without
//     arrivals a record still parked is held by nothing but a broken trim.
//   - Monotone-counter drift: datapath counters only count up. A sampler
//     scrapes the merged metrics during the run; any counter that regresses
//     between samples is corruption (double accounting, a racy reset).
//   - Event free-list leak: sim.Allocated() is the simulator's event
//     allocation high-water mark and plateaus in steady state. Growth after
//     warm-up beyond allocSlack means events are being held, not recycled.
//   - Goroutine leak: after Stop, the process goroutine count must return to
//     its pre-soak baseline (within goroutineSlack).
//   - Audit violations: the sampling invariant auditor runs throughout; any
//     violation fails the run.
//   - Activity floors: a soak that did fewer than minUpdates policy updates
//     or minRestarts restarts wasn't soaking — the run fails rather than
//     vacuously passing.
//
// Defect injectors (Config.Inject) seed the failures the gates exist to
// catch, so the harness's detection power is itself under test; see
// soak_test.go.
package soak

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"acdc/internal/core"
	"acdc/internal/daemon"
	"acdc/internal/faults"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/workload"
)

// Defect selects a deliberately seeded bug for harness self-tests.
type Defect string

const (
	// DefectNone runs clean.
	DefectNone Defect = ""
	// DefectUndeadFlow keeps one synthetic flow-table entry alive forever —
	// a keepalive event refreshes it through the datapath with no connection
	// behind it, so it survives the drain. Models a broken removal path.
	DefectUndeadFlow Defect = "undead-flow"
	// DefectCounterRegress subtracts a billion from a datapath counter
	// mid-run. Models double accounting or a racy counter reset.
	DefectCounterRegress Defect = "counter-regress"
	// DefectHostileBeta writes β=3 straight into live flows, bypassing the
	// Policy sanitize/validate choke point. The next congestion cut grows
	// the window (Eq. 1 factor > 1) and the always-on state-transition
	// audit catches it. Models an unsanitized policy install path.
	DefectHostileBeta Defect = "hostile-beta"
	// DefectPhantomDemand keeps opening and closing a synthetic connection
	// through host 0's datapath, drain included, so every sweep sees flows
	// created and the trim keeps records parked to the end. Models a free
	// list that is no longer trimmed; core has no switch that skips the trim
	// (and gets none for a self-test), so the defect feeds it instead, and
	// its connections trip the flow-table gate as well.
	DefectPhantomDemand Defect = "phantom-demand"
)

// The soak's fixed shape: its fabric, its control-plane cadences (wall
// time) and its gates' floors and slacks.
const (
	scale           = 0.2 // virtual seconds advanced per wall second
	tenants         = 3   // the churn workload's tenants …
	hostsPerTenant  = 4   // … of this many hosts each: the fabric's hosts
	updateEvery     = 10 * time.Millisecond
	updatesPerBurst = 4 // policy updates per hostile-controller burst
	restartEvery    = time.Second
	faultFlipEvery  = 2 * time.Second
	sampleEvery     = 250 * time.Millisecond // metric scrapes for drift and allocation
	minUpdates      = 100                    // activity floors
	minRestarts     = 1
	goroutineSlack  = 4     // goroutine-count growth allowed after Stop
	allocSlack      = 16384 // sim.Allocated() growth allowed after warm-up: one free list's worth
)

// Config parameterizes a soak run. The zero value is a sensible short soak;
// CI smoke and cmd/acdcsuite raise Duration.
type Config struct {
	// Duration is the wall-clock soak length (default 5s).
	Duration time.Duration
	// Seed drives both the simulation and the hostile controller (default 1).
	Seed int64
	// Inject seeds a deliberate defect (harness self-tests).
	Inject Defect
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Report is the outcome of a soak run. Failures is empty iff every gate
// passed.
type Report struct {
	WallDuration time.Duration
	VirtualEnd   sim.Time
	Forgiven     sim.Duration

	Updates, Rejects  int64 // accepted / rejected policy installs
	HostileAttempts   int64 // malformed installs streamed on purpose (must reject)
	Restarts          int64
	FaultFlips        int64
	Arrivals, Departs int // tenant churn events
	FlowsHighWater    int
	LeakedFlows       int
	ParkedRecords     int   // flow records still on vSwitch free lists after the drain
	AllocatedWarm     int64 // sim.Allocated() after warm-up
	AllocatedEnd      int64
	GoroutineBase     int
	GoroutineEnd      int
	AuditViolations   int64
	Drift             []string // counter regressions, e.g. "egress_segments_total: 12 -> 3"
	Failures          []string
}

// Failed reports whether any gate tripped.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// String renders the leak report the way `acdcsuite -soak` prints it.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: %v wall, %v virtual (forgiven %v)\n",
		r.WallDuration.Round(time.Millisecond), r.VirtualEnd, sim.Time(r.Forgiven))
	fmt.Fprintf(&b, "  control plane: %d updates, %d rejects (%d hostile), %d restarts, %d fault flips\n",
		r.Updates, r.Rejects, r.HostileAttempts, r.Restarts, r.FaultFlips)
	fmt.Fprintf(&b, "  churn: %d arrivals, %d departures, flow high-water %d\n",
		r.Arrivals, r.Departs, r.FlowsHighWater)
	fmt.Fprintf(&b, "  gates: leaked-flows=%d parked-records=%d drift=%d alloc=%d->%d goroutines=%d->%d audit=%d\n",
		r.LeakedFlows, r.ParkedRecords, len(r.Drift), r.AllocatedWarm, r.AllocatedEnd,
		r.GoroutineBase, r.GoroutineEnd, r.AuditViolations)
	if !r.Failed() {
		b.WriteString("  PASS: no leaks, no drift, no violations\n")
		return b.String()
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL: %s\n", f)
	}
	return b.String()
}

func (r *Report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// flipProfiles is the hostile controller's fault-regime rotation: mild
// impairments the datapath must absorb without audit violations, plus clean
// interludes.
var flipProfiles = []string{"none", "jitter", "dup", "reorder", "loss", "none"}

// Run executes one soak and returns its report. The run is a pure function
// of Config for the simulated side (seeded PRNGs everywhere); wall-clock
// scheduling jitter only shifts when control-plane ops land, not what they
// may legally do.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	start := time.Now()
	r := &Report{GoroutineBase: runtime.NumGoroutine()}

	const hosts = tenants * hostsPerTenant
	startProf, _ := faults.Lookup("jitter")
	d := daemon.New(daemon.Config{
		Hosts: hosts,
		Seed:  cfg.Seed,
		Scale: scale,
		// Short catch-up bursts keep the sim loop responsive to marshaled
		// control ops even when the fabric can't sustain scale.
		MaxCatchUp: 5 * sim.Millisecond,
		Faults:     &startProf,
		Tune: func(c *core.Config) {
			// Shorten the flow lifecycle so churned flows age out within the
			// run and the drain finishes fast; the leak gate depends on idle
			// entries actually being swept.
			c.IdleTimeout = 150 * sim.Millisecond
			c.GCInterval = 50 * sim.Millisecond
			c.SweepInterval = 50 * sim.Millisecond
		},
	})

	// Workloads are built before Start (construction schedules sim events,
	// which is only safe while the loop isn't running).
	m := workload.NewManager(d.Net())
	churn := workload.NewTenantChurn(m, workload.TenantChurnConfig{
		Tenants:        tenants,
		HostsPerTenant: hostsPerTenant,
		ChurnPeriod:    5 * sim.Millisecond,
	})
	churn.Start()
	crowdSenders := make([]int, 0, hostsPerTenant)
	for i := hosts - hostsPerTenant; i < hosts; i++ {
		crowdSenders = append(crowdSenders, i)
	}
	crowd := workload.NewFlashCrowd(m, workload.FlashCrowdConfig{
		Senders: crowdSenders,
		Hot:     0,
	})
	crowd.Start()
	switch cfg.Inject {
	case DefectUndeadFlow:
		injectUndeadFlow(d.Net().ACDC[0], d.Net().Sim)
	case DefectPhantomDemand:
		injectPhantomDemand(d.Net().ACDC[0], d.Net().Sim)
	}

	d.Start()
	runControl(cfg, d, r)

	// Drain: stop the workloads, then run the simulation past the idle
	// timeout so every flow backed by a (now quiet) connection is swept.
	// Both touch sim state, so they are marshaled onto the sim loop.
	if err := d.Exec(func() { churn.Stop(); crowd.Stop() }); err != nil {
		r.failf("stopping workloads: %v", err)
	}
	// The free lists and the simulator belong to the sim loop: read them there.
	if err := d.Exec(func() {
		d.Net().Sim.RunFor(600 * sim.Millisecond)
		for _, v := range d.Net().ACDC {
			r.ParkedRecords += v.ParkedFlows()
		}
		r.AllocatedEnd = d.Net().Sim.Allocated()
	}); err != nil {
		r.failf("drain: %v", err)
	}

	st, err := d.StatusNow()
	if err != nil {
		r.failf("status: %v", err)
	}
	r.VirtualEnd = sim.Time(st.SimNowNanos)
	r.Forgiven = sim.Duration(st.ForgivenNanos)
	r.Updates, r.Rejects = st.PolicyUpdates, st.PolicyRejects
	r.Restarts = st.Restarts
	r.LeakedFlows = st.Flows
	r.AuditViolations = st.AuditTotal

	d.Stop()
	r.Arrivals, r.Departs = churn.Arrivals, churn.Departures

	// Goroutines unwind asynchronously after Stop; give them a moment.
	deadline := time.Now().Add(3 * time.Second)
	for {
		r.GoroutineEnd = runtime.NumGoroutine()
		if r.GoroutineEnd <= r.GoroutineBase+goroutineSlack || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	r.WallDuration = time.Since(start)
	gate(r)
	cfg.Log("%s", r.String())
	return r
}

// gate applies the pass/fail criteria to the collected evidence.
func gate(r *Report) {
	if r.LeakedFlows > 0 {
		r.failf("flow-table leak: %d entries survived the post-workload drain", r.LeakedFlows)
	}
	if r.ParkedRecords > 0 {
		r.failf("flow-record leak: %d records still parked on vSwitch free lists after the drain", r.ParkedRecords)
	}
	for _, dr := range r.Drift {
		r.failf("counter drift: %s", dr)
	}
	if r.AllocatedWarm > 0 && r.AllocatedEnd-r.AllocatedWarm > allocSlack {
		r.failf("event free-list leak: sim.Allocated grew %d past warm-up (slack %d)",
			r.AllocatedEnd-r.AllocatedWarm, allocSlack)
	}
	if r.GoroutineEnd > r.GoroutineBase+goroutineSlack {
		r.failf("goroutine leak: %d before, %d after stop (slack %d)",
			r.GoroutineBase, r.GoroutineEnd, goroutineSlack)
	}
	if r.AuditViolations > 0 {
		r.failf("audit: %d invariant violations", r.AuditViolations)
	}
	if r.Updates < minUpdates {
		r.failf("too idle: %d policy updates applied, need >= %d", r.Updates, minUpdates)
	}
	if r.Restarts < minRestarts {
		r.failf("too idle: %d restarts, need >= %d", r.Restarts, minRestarts)
	}
}

// runControl is the hostile controller plus the drift/allocation sampler: a
// wall-clock loop that streams policy updates, restarts, and fault flips at
// their configured cadences until the soak deadline.
func runControl(cfg Config, d *daemon.Daemon, r *Report) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x50ac))
	const hosts = tenants * hostsPerTenant
	deadline := time.Now().Add(cfg.Duration)
	warmup := time.Now().Add(cfg.Duration / 3)
	injectAt := time.Now().Add(cfg.Duration / 2)
	injected := false

	nextUpdate := time.Now()
	nextRestart := time.Now().Add(restartEvery)
	nextFlip := time.Now().Add(faultFlipEvery)
	nextSample := time.Now().Add(sampleEvery)
	prev := map[string]int64{}

	for now := time.Now(); now.Before(deadline); now = time.Now() {
		if !now.Before(nextUpdate) {
			nextUpdate = now.Add(updateEvery)
			for i := 0; i < updatesPerBurst; i++ {
				streamOne(d, rng, hosts, r)
			}
		}
		if !now.Before(nextRestart) {
			nextRestart = now.Add(restartEvery)
			warm := rng.Float64() < 0.8
			if err := d.Restart(rng.Intn(hosts), warm); err != nil {
				r.failf("restart: %v", err)
			}
		}
		if !now.Before(nextFlip) {
			nextFlip = now.Add(faultFlipEvery)
			p, _ := faults.Lookup(flipProfiles[rng.Intn(len(flipProfiles))])
			if err := d.SetFaultProfile(p); err != nil {
				r.failf("fault flip: %v", err)
			} else {
				r.FaultFlips++
			}
		}
		if !now.Before(nextSample) {
			nextSample = now.Add(sampleEvery)
			sample(d, prev, r)
			if r.AllocatedWarm == 0 && now.After(warmup) {
				if err := d.Exec(func() { r.AllocatedWarm = d.Net().Sim.Allocated() }); err != nil {
					r.failf("reading sim.Allocated: %v", err)
				}
			}
			if injected && cfg.Inject == DefectHostileBeta {
				// Re-poison each sampling interval: churn keeps replacing
				// the poisoned flows with clean ones.
				injectMidRun(cfg.Inject, d, r)
			}
		}
		if cfg.Inject != DefectNone && !injected && now.After(injectAt) {
			injected = true
			injectMidRun(cfg.Inject, d, r)
		}
		time.Sleep(time.Millisecond)
	}
}

// streamOne issues one seeded-random policy operation against a live flow.
// Roughly one in ten is deliberately hostile (β outside [0,1]) and must be
// rejected; one in ten clears instead of installing.
func streamOne(d *daemon.Daemon, rng *rand.Rand, hosts int, r *Report) {
	host := rng.Intn(hosts)
	v := d.Net().ACDC[host]
	var keys []core.FlowKey
	if err := d.Exec(func() { v.Table.Range(func(f *core.Flow) { keys = append(keys, f.Key) }) }); err != nil {
		r.failf("listing flows: %v", err)
		return
	}
	if len(keys) == 0 {
		return
	}
	k := keys[rng.Intn(len(keys))]
	switch roll := rng.Float64(); {
	case roll < 0.1:
		r.HostileAttempts++
		p := core.Policy{Beta: 1.5 + 2*rng.Float64()}
		if _, err := d.InstallPolicy(host, k, p); err == nil {
			r.failf("hostile policy (beta=%g) was accepted on host %d", p.Beta, host)
		}
	case roll < 0.2:
		if _, err := d.ClearPolicy(host, k); err != nil {
			r.failf("clear policy: %v", err)
		}
	default:
		p := core.Policy{Beta: rng.Float64()}
		if rng.Float64() < 0.3 {
			p.RwndClampBytes = int64(64<<10 + rng.Intn(1<<20))
		}
		if rng.Float64() < 0.2 {
			p.VCC = []string{"dctcp", "reno"}[rng.Intn(2)]
		}
		if _, err := d.InstallPolicy(host, k, p); err != nil {
			r.failf("benign policy rejected: %v", err)
		}
	}
}

// sample scrapes the merged counters and records any regression — counters
// are monotone by contract, so cur < prev is corruption, not noise. Reads of
// different counters are not one consistent cut, but each counter is compared
// only with its own earlier value, which monotonicity makes sound.
func sample(d *daemon.Daemon, prev map[string]int64, r *Report) {
	snap, err := d.MetricsSnapshot()
	if err != nil {
		r.failf("metrics: %v", err)
		return
	}
	st, err := d.StatusNow()
	if err != nil {
		r.failf("status: %v", err)
		return
	}
	r.FlowsHighWater = max(r.FlowsHighWater, st.Flows)
	for name, cur := range snap.Counters {
		if pv, ok := prev[name]; ok && cur < pv {
			r.Drift = append(r.Drift, fmt.Sprintf("%s: %d -> %d", name, pv, cur))
		}
		prev[name] = cur
	}
}

// injectUndeadFlow schedules a keepalive that refreshes one synthetic flow
// through host 0's egress every 50ms of virtual time — forever, including
// through the drain. No connection backs the entry, so a correct harness
// must flag it as leaked. Scheduled before the daemon starts (sim-goroutine
// rule); the event then reschedules itself from inside the simulation.
func injectUndeadFlow(v *core.VSwitch, s *sim.Simulator) {
	src := packet.MakeAddr(10, 99, 99, 1)
	dst := packet.MakeAddr(10, 99, 99, 2)
	var seq uint32 = 1000
	var keepalive func()
	keepalive = func() {
		p := packet.Build(src, dst, packet.NotECT, packet.TCPFields{
			SrcPort: 49999, DstPort: 49998,
			Seq: seq, Ack: 1, Flags: packet.FlagACK | packet.FlagPSH,
			Window: 65535,
		}, 1000)
		seq += 1000
		v.EgressPath(p) // midstream adoption creates (and refreshes) the entry
		s.ScheduleFunc(50*sim.Millisecond, keepalive)
	}
	s.ScheduleFunc(0, keepalive)
}

// injectPhantomDemand opens and closes one synthetic connection through host
// 0's datapath every 5ms of virtual time, forever: SYN out, FIN out, FIN in —
// two records, closed, with nothing behind them. Each sweep collects the ones
// old enough and, having seen new ones created, keeps records parked for the
// next. Scheduled like injectUndeadFlow.
func injectPhantomDemand(v *core.VSwitch, s *sim.Simulator) {
	src := packet.MakeAddr(10, 99, 99, 1)
	dst := packet.MakeAddr(10, 99, 99, 2)
	port := uint16(0)
	var cycle func()
	cycle = func() {
		port++
		sp := 20000 + port%20000
		const ack, fin = packet.FlagACK, packet.FlagFIN
		v.EgressPath(packet.Build(src, dst, packet.NotECT, packet.TCPFields{
			SrcPort: sp, DstPort: 49998, Seq: 1000, Flags: packet.FlagSYN, Window: 65535}, 0))
		v.EgressPath(packet.Build(src, dst, packet.NotECT, packet.TCPFields{
			SrcPort: sp, DstPort: 49998, Seq: 1001, Ack: 1, Flags: ack | fin, Window: 65535}, 0))
		v.IngressPath(packet.Build(dst, src, packet.NotECT, packet.TCPFields{
			SrcPort: 49998, DstPort: sp, Seq: 1, Ack: 1002, Flags: ack | fin, Window: 65535}, 0))
		s.ScheduleFunc(5*sim.Millisecond, cycle)
	}
	s.ScheduleFunc(0, cycle)
}

// injectMidRun applies the wall-clock-timed defects from the controller
// loop, marshaled onto the sim goroutine.
func injectMidRun(defect Defect, d *daemon.Daemon, r *Report) {
	var err error
	switch defect {
	case DefectCounterRegress:
		v := d.Net().ACDC[0]
		err = d.Exec(func() { v.Metrics.EgressSegs.Add(-1_000_000_000) })
	case DefectHostileBeta:
		err = d.Exec(func() {
			for _, v := range d.Net().ACDC {
				poisonBeta(v)
			}
		})
	}
	if err != nil {
		r.failf("defect injection %q: %v", defect, err)
	}
}

// poisonBeta gives every flow v tracks β = 3, past the Sanitized choke point.
// Flows share policy values, so each gets a private copy: writing through
// Flow.Policy would poison the shared default, and every flow created after.
func poisonBeta(v *core.VSwitch) {
	v.Table.Range(func(f *core.Flow) {
		p := *f.Policy
		p.Beta = 3
		f.Policy = &p
	})
}

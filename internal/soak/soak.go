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
// The package's tests seed the failures the gates exist to catch, each
// through a plant (see run), so the harness's detection power is itself
// under test.
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
	"acdc/internal/sim"
	"acdc/internal/workload"
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
func Run(cfg Config) *Report { return run(cfg, nil) }

// A plant seeds a deliberate defect for the gates to catch. run calls before
// ahead of the daemon's Start, while the caller still owns the fabric, and
// midRun from the controller loop half way through the soak and again after
// every later sample, reaching the fabric through Exec.
type plant interface {
	before(d *daemon.Daemon)
	midRun(d *daemon.Daemon) error
}

// run is Run with a defect planted, when p is not nil.
func run(cfg Config, p plant) *Report {
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
	if p != nil {
		p.before(d)
	}

	d.Start()
	runControl(cfg, d, r, p)

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
// their configured cadences until the soak deadline, and plants p's mid-run
// defect.
func runControl(cfg Config, d *daemon.Daemon, r *Report, p plant) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x50ac))
	const hosts = tenants * hostsPerTenant
	deadline := time.Now().Add(cfg.Duration)
	warmup := time.Now().Add(cfg.Duration / 3)
	plantAt := time.Now().Add(cfg.Duration / 2)
	planted := false
	midRun := func() {
		if err := p.midRun(d); err != nil {
			r.failf("planting a defect: %v", err)
		}
	}

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
			if planted {
				midRun()
			}
		}
		if p != nil && !planted && now.After(plantAt) {
			planted = true
			midRun()
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

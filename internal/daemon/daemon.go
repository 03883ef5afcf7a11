// Package daemon turns the batch simulator into a long-lived service: a
// continuously advancing simulation (wall-clock paced, with bounded catch-up)
// plus a localhost HTTP admin API for streaming per-flow policy updates,
// scraping metrics, warm- and cold-restarting vSwitches, and probing health.
// cmd/acdcd is the thin binary around it; internal/soak reuses the same
// machinery to hammer the control plane in tests.
//
// # Threading model
//
// One owner, one way in. The simulation is single-threaded by contract
// (internal/sim), so the daemon runs it on one dedicated goroutine — the sim
// loop — that alternates pacer advances with commands drained from a bounded
// queue, and that goroutine owns everything simulated: the fabric, every
// vSwitch, its flow table and its policies. Every method a caller on another
// goroutine may use (the admin handlers run on net/http's) reaches the fabric
// through the queue (onLoop), or reads only what the loop publishes
// atomically (DegradedReason): metric instruments are plain words that only
// their owner may touch (internal/metrics). A full queue is a transient
// failure: enqueue retries with bounded backoff and only then reports the
// overload (ErrBusy, HTTP 503).
//
// # Degradation
//
// The daemon degrades instead of dying: audit violations or a climbing
// fail-open counter flip readiness to "degraded" (HTTP 503 on /readyz with
// the reason) while the datapath, the admin API, and metrics keep serving.
package daemon

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"acdc/internal/audit"
	"acdc/internal/core"
	"acdc/internal/experiments"
	"acdc/internal/faults"
	"acdc/internal/metrics"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

const (
	// failOpenLimit is the fail_open_total count (summed over hosts) at
	// which readiness degrades.
	failOpenLimit = 10000
	// queueDepth bounds the sim-loop command queue.
	queueDepth = 64
)

// Config parameterizes a daemon.
type Config struct {
	// Hosts is the star-topology size (default 4).
	Hosts int
	// Seed seeds the simulation (default 1).
	Seed int64
	// Scale is virtual nanoseconds advanced per wall nanosecond. Simulating
	// a 10G fabric in real time is far beyond one core, so the default runs
	// the virtual clock at 1/20 wall speed (0.05); operators size it to
	// their topology.
	Scale float64
	// MaxCatchUp bounds the virtual time replayed after a stall (default
	// 50ms virtual). Beyond it the pacer forgives lag — the daemon runs
	// slightly behind rather than freezing to replay.
	MaxCatchUp sim.Duration
	// Tick is the wall interval between pacer advances (default 2ms).
	Tick time.Duration
	// AuditSample attaches the datapath invariant auditor with 1-in-N
	// sampling (default 64; state transitions are always checked). 0 keeps
	// the default; negative disables auditing entirely.
	AuditSample int
	// Workload, when true, drives continuous background bulk traffic so the
	// service has live flows without an external driver (default off; the
	// binary turns it on).
	Workload bool
	// Tune, when set, adjusts the AC/DC datapath config (a private copy)
	// before the fabric is built — e.g. the soak harness shortens
	// IdleTimeout so churned flows age out within the run.
	Tune func(*core.Config)
	// Faults, when non-nil and enabled, installs a deterministic fault
	// injector on every link. Flip regimes later with SetFaultProfile.
	Faults *faults.Profile
	// Fabric, when non-empty, arms fabric fault domains (link/switch outages,
	// flaps, gray loss; see faults.ParseDomains) on the service topology.
	// Star link names are "h<i>.up"/"h<i>.down". Armed domains flip the
	// status report and /metrics into fabric mode (extra counters appear).
	Fabric []faults.FaultDomain
	// AdminToken, when non-empty, requires `Authorization: Bearer <token>`
	// on every mutating admin endpoint (the POST surface: policy and
	// restart). Read-only probes stay open so health checks and scrapes
	// work unauthenticated. Empty leaves the API open —
	// acceptable only on a loopback bind, which cmd/acdcd enforces.
	AdminToken string
}

func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if !(c.Scale > 0) { // NaN too
		c.Scale = 0.05
	}
	if c.MaxCatchUp <= 0 {
		c.MaxCatchUp = 50 * sim.Millisecond
	}
	if c.Tick <= 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.AuditSample == 0 {
		c.AuditSample = 64
	}
	return c
}

// ErrBusy reports a command queue that stayed full through every retry — the
// sim loop is overloaded or stalled; the client should back off and retry.
var ErrBusy = errors.New("daemon: sim loop busy (command queue full)")

// ErrStopped reports a daemon that is shutting down.
var ErrStopped = errors.New("daemon: stopped")

// ErrNoHost reports a host index with no AC/DC module behind it.
var ErrNoHost = errors.New("daemon: no such AC/DC host")

// Daemon is one running service instance.
type Daemon struct {
	cfg   Config
	net   *topo.Net
	pacer *sim.Pacer

	cmds chan func()
	quit chan struct{}
	done chan struct{}

	started time.Time
	stopped atomic.Bool

	// Control-plane op counters (admin surface, not datapath metrics).
	policyUpdates  atomic.Int64
	policyRejects  atomic.Int64
	restarts       atomic.Int64
	enqueueRetries atomic.Int64

	// failOpen is fail_open_total summed over hosts, as the owner of the
	// fabric last published it (publish): DegradedReason reads it from any
	// goroutine without touching the vSwitches' plain counters.
	failOpen atomic.Int64

	// advancing is true while the loop runs a pacer advance. A new command
	// cuts the advance short (sim.Stop), so that it waits for one event
	// rather than the whole catch-up; the next tick resumes where it stopped.
	// mu keeps the cut out of a command that runs the simulator itself.
	mu        sync.Mutex
	advancing bool
}

// New builds the daemon's simulated fabric (a star of cfg.Hosts hosts with
// AC/DC attached everywhere, DCTCP-marking switches) and its pacer. The sim
// loop does not run until Start.
func New(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	scheme := experiments.SchemeACDC(tcpstack.DefaultConfig().MTU, "cubic", tcpstack.ECNOff)
	acdcCfg := *scheme.ACDC
	if cfg.Tune != nil {
		cfg.Tune(&acdcCfg)
	}
	opts := topo.Options{
		Guest: scheme.Guest,
		ACDC:  &acdcCfg,
		RED:   scheme.RED,
		Seed:  cfg.Seed,
		Env:   topo.Env{Faults: cfg.Faults, Fabric: cfg.Fabric},
	}
	if cfg.AuditSample > 0 {
		opts.Audit = &audit.Config{Sample: cfg.AuditSample}
	}
	net := topo.Star(cfg.Hosts, opts)
	d := &Daemon{
		cfg:   cfg,
		net:   net,
		pacer: sim.NewPacer(net.Sim, cfg.Scale, cfg.MaxCatchUp),
		cmds:  make(chan func(), queueDepth),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if cfg.Workload {
		d.startWorkload()
	}
	return d
}

// Net exposes the underlying fabric. It belongs to the sim loop: while the
// loop runs, touch it only inside Exec.
func (d *Daemon) Net() *topo.Net { return d.net }

// startWorkload opens a ring of persistent bulk connections (host i → i+1)
// and keeps them topped up from a self-rescheduling sim event, so the
// service always has live flows to enforce on.
func (d *Daemon) startWorkload() {
	m := workload.NewManager(d.net)
	flows := make([]*workload.Messenger, 0, d.cfg.Hosts)
	for i := 0; i < d.cfg.Hosts; i++ {
		flows = append(flows, m.Open(i, (i+1)%d.cfg.Hosts))
	}
	const chunk = 1 << 20
	var refill func()
	refill = func() {
		for _, f := range flows {
			f.SendBulk(chunk)
		}
		d.net.Sim.ScheduleFunc(10*sim.Millisecond, refill)
	}
	d.net.Sim.ScheduleFunc(0, refill)
}

// Start launches the sim loop. Stop shuts it down.
func (d *Daemon) Start() {
	d.started = time.Now()
	go d.loop()
}

// Stop shuts the sim loop down and waits for it to exit. Idempotent.
func (d *Daemon) Stop() {
	if d.stopped.CompareAndSwap(false, true) {
		close(d.quit)
		d.net.Sim.Stop() // interrupt a long catch-up Run mid-advance
	}
	<-d.done
}

// loop is the sim goroutine: wall-paced advances interleaved with marshaled
// commands.
func (d *Daemon) loop() {
	defer close(d.done)
	ticker := time.NewTicker(d.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-d.quit:
			return
		case fn := <-d.cmds:
			fn()
		case <-ticker.C:
			d.setAdvancing(true)
			d.pacer.Advance()
			d.setAdvancing(false)
			d.drain()
		}
		d.publish()
	}
}

// publish stores the fail-open total for DegradedReason. Only the fabric's
// owner calls it: the sim loop after each command and after each advance
// with the commands drained behind it, or onLoop when there is no loop.
func (d *Daemon) publish() {
	var n int64
	for _, v := range d.net.ACDC {
		if v != nil {
			n += v.Metrics.FailOpen.Value()
		}
	}
	d.failOpen.Store(n)
}

func (d *Daemon) setAdvancing(on bool) {
	d.mu.Lock()
	d.advancing = on
	d.mu.Unlock()
}

// drain runs queued commands without blocking, so a burst of admin ops does
// not wait a full tick each.
func (d *Daemon) drain() {
	for {
		select {
		case fn := <-d.cmds:
			fn()
		default:
			return
		}
	}
}

// enqueue submits fn to the sim loop with bounded retry+backoff: a full
// queue is transient (the loop drains every tick), so the daemon absorbs
// short bursts before surfacing ErrBusy.
func (d *Daemon) enqueue(fn func()) error {
	backoff := d.cfg.Tick
	for attempt := 0; attempt < 4; attempt++ {
		if d.stopped.Load() {
			return ErrStopped
		}
		select {
		case d.cmds <- fn:
			d.mu.Lock()
			if d.advancing {
				d.net.Sim.Stop()
			}
			d.mu.Unlock()
			return nil
		default:
		}
		d.enqueueRetries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
	return ErrBusy
}

// Exec marshals fn onto the sim loop and waits for it to run. fn must not
// block, or the whole service stalls. A full queue surfaces as ErrBusy after
// bounded retries, a stopped daemon as ErrStopped.
func (d *Daemon) Exec(fn func()) error {
	ran := make(chan struct{})
	err := d.enqueue(func() {
		defer close(ran)
		fn()
	})
	if err != nil {
		return err
	}
	select {
	case <-ran:
		return nil
	case <-d.done:
		// The loop may have run fn on its way out.
		select {
		case <-ran:
			return nil
		default:
			return ErrStopped
		}
	}
}

// onLoop runs fn as the fabric's owner: through the queue while the sim loop
// runs, inline while there is none — never started (the caller drives the
// simulator itself, as the benchmark's admin-plane probes do) or stopped and
// exited (acdcd's final status line). It fails only with ErrBusy.
func (d *Daemon) onLoop(fn func()) error {
	if d.started.IsZero() {
		fn()
		d.publish()
		return nil
	}
	err := d.Exec(fn)
	if errors.Is(err, ErrStopped) {
		<-d.done
		fn()
		d.publish()
		return nil
	}
	return err
}

// vswitch resolves a host index to its AC/DC module.
func (d *Daemon) vswitch(host int) (*core.VSwitch, error) {
	if host < 0 || host >= len(d.net.ACDC) {
		return nil, fmt.Errorf("%w: host %d out of range [0,%d)", ErrNoHost, host, len(d.net.ACDC))
	}
	v := d.net.ACDC[host]
	if v == nil {
		return nil, fmt.Errorf("%w: host %d has no AC/DC module", ErrNoHost, host)
	}
	return v, nil
}

// onHost runs fn on the sim loop with host's vSwitch.
func (d *Daemon) onHost(host int, fn func(*core.VSwitch)) error {
	v, err := d.vswitch(host)
	if err != nil {
		return err
	}
	return d.onLoop(func() { fn(v) })
}

// InstallPolicy validates and installs a live per-flow policy on one host's
// vSwitch.
func (d *Daemon) InstallPolicy(host int, k core.FlowKey, p core.Policy) (core.Policy, error) {
	var installed core.Policy
	var rejected error
	if err := d.onHost(host, func(v *core.VSwitch) { installed, rejected = v.InstallPolicy(k, p) }); err != nil {
		return core.Policy{}, err
	}
	if rejected != nil {
		d.policyRejects.Add(1)
		return core.Policy{}, rejected
	}
	d.policyUpdates.Add(1)
	return installed, nil
}

// ClearPolicy removes a live override.
func (d *Daemon) ClearPolicy(host int, k core.FlowKey) (cleared bool, err error) {
	err = d.onHost(host, func(v *core.VSwitch) { cleared = v.ClearPolicy(k) })
	return cleared, err
}

// Restart warm- or cold-restarts one host's vSwitch: a warm restart saves
// its snapshot and restarts from it in one command.
func (d *Daemon) Restart(host int, warm bool) error {
	err := d.onHost(host, func(v *core.VSwitch) {
		if warm {
			v.Restart(v.SaveSnapshot())
		} else {
			v.Restart(nil)
		}
	})
	if err == nil {
		d.restarts.Add(1)
	}
	return err
}

// SetFaultProfile flips the link fault regime. It errors when the daemon was
// built without Config.Faults (no injector is attached to flip).
func (d *Daemon) SetFaultProfile(p faults.Profile) error {
	in := d.net.Faults
	if in == nil {
		return errors.New("daemon: no fault injector configured")
	}
	return d.onLoop(func() { in.SetProfile(p) })
}

// MetricsSnapshot merges every host's datapath registry into one view. Each
// host's flow-table occupancy gauge is refreshed first so a Prometheus scrape
// sees the table as of this scrape, not as of the last control-plane visit.
// When fabric fault domains are armed, the fabric's link-lifecycle and ECMP
// counters ride along, so one scrape correlates injected outages with the
// datapath reaction.
func (d *Daemon) MetricsSnapshot() (merged metrics.Snapshot, err error) {
	err = d.onLoop(func() {
		snaps := make([]metrics.Snapshot, 0, len(d.net.ACDC)+1)
		for _, v := range d.net.ACDC {
			if v != nil {
				v.UpdateTableGauges()
				snaps = append(snaps, v.Metrics.Snapshot())
			}
		}
		if d.net.HasFabric() {
			snaps = append(snaps, d.net.FabricSnapshot())
		}
		merged = metrics.Merge(snaps...)
	})
	return merged, err
}

// FlowInfo is one tracked flow as the admin API reports it.
type FlowInfo struct {
	Host      int     `json:"host"`
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	SPort     uint16  `json:"sport"`
	DPort     uint16  `json:"dport"`
	CwndBytes float64 `json:"cwnd_bytes"`
	Alpha     float64 `json:"alpha"`
	SndUna    int64   `json:"snd_una"`
	SndNxt    int64   `json:"snd_nxt"`
	Resyncing bool    `json:"resyncing,omitempty"`
}

// Flows lists tracked flows, sorted by host and then by flow key, so the
// listing does not show the table's layout; host < 0 lists every host. The
// list is never nil, so an empty one encodes as [].
func (d *Daemon) Flows(host int) ([]FlowInfo, error) {
	if host >= 0 {
		if _, err := d.vswitch(host); err != nil {
			return nil, err
		}
	}
	out := []FlowInfo{}
	err := d.onLoop(func() {
		var fs []*core.Flow
		for i, v := range d.net.ACDC {
			if v == nil || (host >= 0 && i != host) {
				continue
			}
			fs = fs[:0]
			v.Table.Range(func(f *core.Flow) { fs = append(fs, f) })
			slices.SortFunc(fs, func(a, b *core.Flow) int { return a.Key.Compare(b.Key) })
			for _, f := range fs {
				s := f.Snapshot()
				out = append(out, FlowInfo{
					Host: i,
					Src:  f.Key.Src.String(), Dst: f.Key.Dst.String(),
					SPort: f.Key.SPort, DPort: f.Key.DPort,
					CwndBytes: s.CwndBytes, Alpha: s.Alpha,
					SndUna: s.SndUna, SndNxt: s.SndNxt,
					Resyncing: s.Resyncing,
				})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Status is the admin status report.
type Status struct {
	SimNow         string  `json:"sim_now"`
	SimNowNanos    int64   `json:"sim_now_nanos"`
	ForgivenNanos  int64   `json:"forgiven_nanos"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Hosts          int     `json:"hosts"`
	Flows          int     `json:"flows"`
	PolicyUpdates  int64   `json:"policy_updates"`
	PolicyRejects  int64   `json:"policy_rejects"`
	Restarts       int64   `json:"restarts"`
	EnqueueRetries int64   `json:"enqueue_retries"`
	AuditTotal     int64   `json:"audit_violations"`
	FailOpen       int64   `json:"fail_open"`
	PressureSweeps int64   `json:"pressure_sweeps"`
	// Fabric health, present only when fault domains are armed (omitempty
	// keeps a fabric-free daemon's status JSON unchanged): cumulative link
	// outage events, ECMP failovers/blackholes, and gray-loss drops.
	FabricLinkDowns  int64  `json:"fabric_link_downs,omitempty"`
	FabricLinkUps    int64  `json:"fabric_link_ups,omitempty"`
	FabricFailovers  int64  `json:"fabric_failovers,omitempty"`
	FabricBlackholes int64  `json:"fabric_blackholes,omitempty"`
	FabricGrayDrops  int64  `json:"fabric_gray_drops,omitempty"`
	Degraded         string `json:"degraded,omitempty"`
}

// StatusNow assembles the current status on the sim loop. As a side effect
// it republishes each host's table-occupancy gauge, so a /status poll keeps the
// Prometheus view fresh too.
func (d *Daemon) StatusNow() (Status, error) {
	st := Status{Hosts: d.cfg.Hosts, UptimeSeconds: time.Since(d.started).Seconds()}
	err := d.onLoop(func() {
		now := d.net.Sim.Now()
		st.SimNow, st.SimNowNanos = now.String(), int64(now)
		st.ForgivenNanos = int64(d.pacer.Forgiven())
		for _, v := range d.net.ACDC {
			if v != nil {
				st.Flows += v.UpdateTableGauges()
				st.FailOpen += v.Metrics.FailOpen.Value()
				st.PressureSweeps += v.Metrics.PressureSweeps.Value()
			}
		}
		if d.net.HasFabric() {
			snap := d.net.FabricSnapshot()
			st.FabricLinkDowns = snap.Counter("fabric_link_downs_total")
			st.FabricLinkUps = snap.Counter("fabric_link_ups_total")
			st.FabricFailovers = snap.Counter("ecmp_failovers_total")
			st.FabricBlackholes = snap.Counter("ecmp_blackholes_total")
			st.FabricGrayDrops = snap.Counter("fabric_gray_drops_total")
		}
	})
	if err != nil {
		return Status{}, err
	}
	st.PolicyUpdates = d.policyUpdates.Load()
	st.PolicyRejects = d.policyRejects.Load()
	st.Restarts = d.restarts.Load()
	st.EnqueueRetries = d.enqueueRetries.Load()
	st.AuditTotal = d.net.AuditViolations()
	st.Degraded = d.DegradedReason()
	return st, nil
}

// DegradedReason reports why the daemon is degraded, or "" when ready. The
// daemon never exits on these conditions — a vSwitch that fails open or
// trips the auditor is worth keeping alive for diagnosis — but readiness
// reflects them so an orchestrator can drain traffic away. It reads only the
// auditors' atomic totals and the fail-open total the sim loop publishes
// after each advance and command, so it answers even while the loop is busy.
func (d *Daemon) DegradedReason() string {
	if n := d.net.AuditViolations(); n > 0 {
		return fmt.Sprintf("audit: %d invariant violations", n)
	}
	if failOpen := d.failOpen.Load(); failOpen >= failOpenLimit {
		return fmt.Sprintf("fail-open: %d packets passed unenforced (limit %d)",
			failOpen, failOpenLimit)
	}
	return ""
}

package core

import (
	"math"
	"slices"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// vTimeout is the per-flow inactivity timer used to infer guest timeouts
// (§3.1).
const vTimeout = 10 * sim.Millisecond

// Config parameterizes one host's AC/DC module.
type Config struct {
	// MTU sets the default MSS (MTU − 40) used before a handshake MSS
	// option is observed.
	MTU int
	// MinRwndBytes floors the enforced window. 0 means one MSS — the bound
	// the paper applies at β=0 and the reason AC/DC beats host DCTCP's
	// 2-packet floor in deep incast (§5.2).
	MinRwndBytes int64
	// EnforceRwnd enables overwriting the receive window. Figure 9 sets it,
	// MarkECT and StripECN false to only observe it (experiments/micro2.go).
	EnforceRwnd bool
	// MarkECT makes all egress packets ECN-capable (§3.2).
	MarkECT bool
	// StripECN removes congestion signals before packets reach the guest.
	StripECN bool
	// DisablePACK forces all feedback onto dedicated FACK packets (ablation:
	// feedback piggybacking vs packet overhead).
	DisablePACK bool
	// UDPTunnel enables DCTCP-friendly UDP tunnels (the paper's §3.3
	// future work): guest datagrams are admitted through a virtual DCTCP
	// window with vSwitch-generated feedback. See tunnel.go.
	UDPTunnel bool
	// CutEveryAck disables Figure 5's once-per-window cut guard (ablation:
	// without it every marked ACK multiplies the window down and flows
	// collapse to the floor).
	CutEveryAck bool
	// Police drops egress segments more than 2 MSS beyond the allowed window
	// (§3.3).
	Police bool
	// GenDupAcks synthesizes three duplicate ACKs to the guest when the
	// inactivity timer infers loss, triggering guest fast retransmit ahead
	// of a long guest RTO (§3.3).
	GenDupAcks bool
	// FlowPolicy assigns per-flow differentiation (β, clamps, algorithm);
	// nil means DefaultPolicy for everything.
	FlowPolicy func(FlowKey) Policy
	// GCInterval/IdleTimeout drive the coarse-grained flow garbage
	// collector (swept lazily from the datapath, §4).
	GCInterval  sim.Duration
	IdleTimeout sim.Duration
	// MaxFlows bounds the flow table (the paper's ~320B/flow budget implies
	// a real capacity). 0 means unbounded. At capacity the datapath first
	// evicts closed/idle flows; if none qualify, the new flow is not tracked
	// and its packets pass through unmodified (fail-open, never dropped).
	MaxFlows int
	// SweepInterval, when >0, runs the garbage collector on a sim-clock
	// timer in addition to the lazy packet-driven sweep, so idle flows are
	// evicted even when the datapath goes quiet. The timer only stays armed
	// while the table is non-empty, so drained simulations still terminate.
	// 0 (default) keeps the pre-existing lazy-only behavior.
	SweepInterval sim.Duration
}

// DefaultConfig returns the paper's settings: ECT marking, ECN stripping and
// RWND enforcement. The virtual CC's own constants (DCTCP by default, IW=10,
// α EWMA gain 1/16) are fixed in vcc.go.
func DefaultConfig() Config {
	return Config{
		MTU:         9000,
		EnforceRwnd: true,
		MarkECT:     true,
		StripECN:    true,
		GCInterval:  sim.Second,
		IdleTimeout: 10 * sim.Second,
	}
}

// VSwitch is one host's AC/DC datapath instance (the OVS modification). Like
// everything simulated, it belongs to the simulation goroutine: a caller on
// another goroutine (the daemon's admin API) reaches it through that
// goroutine's command queue.
type VSwitch struct {
	Sim   *sim.Simulator
	Host  *netsim.Host
	Cfg   Config
	Table *Table
	// Metrics is the datapath observability layer: counters, gauges, and
	// per-algorithm CWND/α histograms updated from the hot path, owned like
	// the vSwitch by the simulation goroutine. Read it via Metrics.Snapshot() or the Stats() convenience
	// method.
	Metrics *DatapathMetrics

	// OnRwndComputed, when set, observes every computed enforcement window
	// (flow, window bytes, whether the ACK's RWND was overwritten). Figures
	// 9 and 10 are built on this hook.
	OnRwndComputed func(f *Flow, rwndBytes int64, overwrote bool)

	// Audit, when non-nil, receives packet and state-transition events for
	// invariant checking (internal/audit). Nil costs the hot path one branch
	// and zero allocations.
	Audit Auditor

	lastSweep  sim.Time
	sweepTick  int
	sweepTimer *sim.Timer // armed only when Cfg.SweepInterval > 0

	// vtimeouts holds the flows' inactivity deadlines (Flow.vtimeout); the
	// first flow to arm one makes it.
	vtimeouts *sim.Deadlines[*Flow]

	// evictCursor is the eviction bucket the next pressure pass starts its
	// search from; evictRetryAt is the cooldown set after a barren pass
	// (nothing evictable), during which flowFor fails open immediately
	// instead of re-scanning.
	evictCursor  int
	evictRetryAt sim.Time

	// parked holds the free lists of bare records and of senderFlows: retire
	// parks, newFlow takes back. ARCHITECTURE.md "Flow records".
	parked [2]freeList

	// defaults is buildFlow's initial sender state (from Cfg.MTU at Attach),
	// which every bare record shares; never written.
	defaults *senderBlock

	// attached gates the datapath hooks, which Attach installs on the host
	// once; Detach and Reattach flip it.
	attached bool

	// overrides is the live per-flow policy table installed through
	// InstallPolicy (the daemon's policy stream), read at flow setup.
	overrides map[FlowKey]*Policy

	// interned holds the policies flows share (intern).
	interned map[Policy]*Policy
}

// Attach creates an AC/DC module on host and installs its datapath hooks.
func Attach(s *sim.Simulator, host *netsim.Host, cfg Config) *VSwitch {
	if cfg.MTU == 0 {
		cfg.MTU = 9000
	}
	if cfg.GCInterval == 0 {
		cfg.GCInterval = sim.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 10 * sim.Second
	}
	mss := int32(cfg.MTU - 40)
	v := &VSwitch{Sim: s, Host: host, Cfg: cfg, Table: NewTable(), attached: true,
		Metrics: newDatapathMetrics(), interned: map[Policy]*Policy{},
		defaults: &senderBlock{MSS: mss, Alpha: initAlpha,
			CwndBytes: initCwndPkts * float64(mss), SsthreshBytes: 1 << 40}}
	if cfg.SweepInterval > 0 {
		v.sweepTimer = sim.NewTimer(s, v.onSweepTick)
	}
	host.Egress = v.egressHook
	host.Ingress = v.ingressHook
	return v
}

// egressHook and ingressHook are the functions installed on the host. They
// stay installed for the vSwitch's lifetime; Detach/Reattach flip the
// attached flag instead.
func (v *VSwitch) egressHook(p *packet.Packet) (out, extra *packet.Packet) {
	if !v.attached {
		return p, nil // detached: standard vSwitch passthrough
	}
	return v.EgressPath(p)
}

func (v *VSwitch) ingressHook(p *packet.Packet) (out, extra *packet.Packet) {
	if !v.attached {
		return p, nil
	}
	return v.IngressPath(p)
}

// pool returns the packet pool shared with the host (nil-safe: pool-less
// hosts fall back to plain allocation).
func (v *VSwitch) pool() *packet.Pool {
	if v.Host == nil {
		return nil
	}
	return v.Host.Pool
}

// Detach disables the datapath hooks (reverting to a standard vSwitch).
func (v *VSwitch) Detach() { v.attached = false }

// policy resolves the per-flow policy: a live InstallPolicy override wins,
// then the FlowPolicy callback, then DefaultPolicy. FlowPolicy callbacks
// must return a fully specified Policy (start from DefaultPolicy and
// override); β=0 is a legal value meaning maximum back-off. Every result is
// routed through the Sanitized choke point before it reaches the
// enforcement math: an operator callback returning β>1 would otherwise make
// Equation (1)'s cut factor exceed 1 — the window would GROW on congestion —
// and a negative clamp would silently disable capping. Snapshot restore
// sanitizes through the same choke point (flowRecord.policy).
func (v *VSwitch) policy(k FlowKey) *Policy {
	if p, ok := v.overrides[k]; ok {
		return p // already sanitized by InstallPolicy
	}
	if v.Cfg.FlowPolicy == nil {
		return &defaultPolicy
	}
	return v.intern(v.Cfg.FlowPolicy(k).sanitize())
}

// intern returns the vSwitch's shared copy of the sanitized policy p, so that
// flows set up under one FlowPolicy answer, or restored with one policy,
// share one value and set-up allocates nothing. Past 1024 values, or where ==
// would fold a −0 β into +0 (the snapshot codec tells them apart), p gets a
// private copy.
func (v *VSwitch) intern(p Policy) *Policy {
	if p == defaultPolicy {
		return &defaultPolicy
	}
	ip := v.interned[p]
	if ip == nil || math.Signbit(ip.Beta) != math.Signbit(p.Beta) {
		ip = &p
		if len(v.interned) < 1024 {
			v.interned[p] = ip
		}
	}
	return ip
}

// flowFor is the capacity-aware GetOrCreate every datapath create site goes
// through, sender saying whether the host sends on k. At MaxFlows it first
// evicts closed/idle entries; if the table is still full the flow is not
// tracked and the caller must pass the packet through unmodified (fail-open).
func (v *VSwitch) flowFor(k FlowKey, sender bool) *Flow {
	if v.Cfg.MaxFlows > 0 {
		if f := v.Table.Get(k); f != nil {
			return f
		}
		if v.Table.Len() >= v.Cfg.MaxFlows {
			v.evictForPressure()
			if v.Table.Len() >= v.Cfg.MaxFlows {
				v.Metrics.FlowTableFull.Inc()
				v.Metrics.FailOpen.Inc()
				return nil
			}
		}
	}
	f, _ := v.Table.GetOrCreate(k, func() *Flow { return v.newFlow(k, sender) })
	return f
}

// flowForRestore is the restore-path counterpart of flowFor. It never runs
// pressure eviction: a snapshot's records do not displace live traffic, so at
// capacity the overflow records fail open, the same outcome a full table
// gives new traffic.
func (v *VSwitch) flowForRestore(k FlowKey, sender bool) *Flow {
	if v.Cfg.MaxFlows > 0 && v.Table.Get(k) == nil && v.Table.Len() >= v.Cfg.MaxFlows {
		v.Metrics.FlowTableFull.Inc()
		v.Metrics.FailOpen.Inc()
		return nil
	}
	f, _ := v.Table.GetOrCreate(k, func() *Flow { return v.newFlow(k, sender) })
	return f
}

// evictForPressure frees table space at capacity: closed flows go
// immediately, idle ones after GCInterval (a much tighter deadline than the
// ordinary IdleTimeout — under pressure, idleness is eviction).
//
// A pass frees the evictable records of one eviction bucket (evictBucket):
// the first, round-robin from a cursor, that holds any. Freeing every
// evictable record at once would also free idle flows that are still live,
// which then resume untracked, without their AC/DC state. A pass walks the
// table to find the bucket and again to free it; one that frees nothing arms
// a cooldown (GCInterval/4) during which further creates fail open
// immediately instead of re-scanning a table of provably live flows on every
// arriving packet.
func (v *VSwitch) evictForPressure() {
	now := v.Sim.Now()
	if v.evictRetryAt != 0 && now < v.evictRetryAt {
		return
	}
	v.evictRetryAt = 0
	v.Metrics.PressureSweeps.Inc()
	evictable := func(f *Flow) bool {
		return (f.finFwd && f.finRev) || now-f.lastActive > v.Cfg.GCInterval
	}
	next := evictBuckets // buckets from the cursor to the first with an evictable record
	v.Table.Range(func(f *Flow) {
		if evictable(f) {
			next = min(next, (evictBucket(f.Key)-v.evictCursor+evictBuckets)%evictBuckets)
		}
	})
	if next < evictBuckets {
		b := (v.evictCursor + next) % evictBuckets
		v.evictCursor = (b + 1) % evictBuckets
		removed := v.Table.Sweep(func(f *Flow) bool {
			return !evictable(f) || evictBucket(f.Key) != b || v.retire(f)
		})
		v.Metrics.FlowsEvicted.Add(int64(removed))
		v.Metrics.FlowsRemoved.Add(int64(removed))
		v.Metrics.FlowTableSize.Add(-int64(removed))
		return
	}
	cooldown := v.Cfg.GCInterval / 4
	if cooldown <= 0 {
		cooldown = 1
	}
	v.evictRetryAt = now + cooldown
}

// newFlow creates a tracked flow, for the datapath and for snapshot restore:
// it arms the sweep timer, and it reuses the newest record of the kind parked
// before the current call when there is one. A sender record is a senderFlow;
// any other is a bare Flow on the shared defaults.
func (v *VSwitch) newFlow(k FlowKey, sender bool) *Flow {
	l := v.freeList(sender)
	l.created++
	n := len(l.recs)
	if l.tick == v.sweepTick {
		n, l.mark = l.mark, max(l.mark-1, 0)
	}
	var f *Flow
	if n > 0 {
		f = l.recs[n-1]
		l.recs = slices.Delete(l.recs, n-1, n)
	} else if sender {
		sf := new(senderFlow)
		f, sf.senderBlock, sf.inline = &sf.Flow, &sf.s, true
	} else {
		f = new(Flow)
	}
	v.buildFlow(f, k)
	if v.sweepTimer != nil {
		v.sweepTimer.ArmIfIdle(v.Cfg.SweepInterval)
	}
	return f
}

// buildFlow is the flow construction: policy resolution, virtual-CC setup,
// initial window. f is new or recycled (its deadline stopped by retire): all
// of it is overwritten, a senderFlow's block with the defaults, which a bare
// record shares.
func (v *VSwitch) buildFlow(f *Flow, k FlowKey) {
	v.Metrics.FlowsCreated.Inc()
	v.Metrics.FlowTableSize.Add(1)
	b := v.defaults
	if f.inline {
		b = f.senderBlock
		*b = *v.defaults
	}
	*f = Flow{
		Key:         k,
		Policy:      v.policy(k),
		senderBlock: b,
		inline:      f.inline,
		lastActive:  v.Sim.Now(),
	}
	v.setLaw(f)
}

// ownSender gives f a copy of the defaults if it shares them, and returns its
// block. Every sender-module entry that writes calls it first.
func (v *VSwitch) ownSender(f *Flow) *senderBlock {
	if f.senderBlock == v.defaults {
		b := *v.defaults
		f.senderBlock = &b
	}
	return f.sender()
}

// setLaw resolves f's law from its policy; the policy's name is sanitized
// before it gets here.
func (v *VSwitch) setLaw(f *Flow) {
	f.vcc, _ = lookupVCC(f.Policy.VCC)
	v.Metrics.registerVCC(f.vcc)
}

// minRwnd returns the enforcement floor for a flow.
func (v *VSwitch) minRwnd(f *Flow) int64 {
	if v.Cfg.MinRwndBytes > 0 {
		return v.Cfg.MinRwndBytes
	}
	return int64(f.MSS)
}

// maybeSweep runs the coarse-grained GC from the datapath (no timers, so
// drained simulations terminate). The lazy sweep runs every 4096 packets once
// GCInterval has elapsed.
func (v *VSwitch) maybeSweep() {
	v.sweepTick++
	if v.sweepTick&0xfff != 0 {
		return
	}
	if now := v.Sim.Now(); now-v.lastSweep >= v.Cfg.GCInterval {
		v.sweepNow(now)
	}
}

// gcKeep is the GC retention predicate: closed flows go after GCInterval,
// idle ones after IdleTimeout.
func (v *VSwitch) gcKeep(now sim.Time) func(*Flow) bool {
	return func(f *Flow) bool {
		if idle := now - f.lastActive; (f.finFwd && f.finRev && idle > v.Cfg.GCInterval) || idle > v.Cfg.IdleTimeout {
			return v.retire(f)
		}
		return true
	}
}

// retire is a GC predicate's verdict on a record it removes: stop the deadline,
// put back the datagrams a tunnel queue still holds, park the record on its
// kind's list without its cold state, answer "do not keep". Tunnel records
// are not parked. The removal that follows unlinks the record.
func (v *VSwitch) retire(f *Flow) bool {
	if f.vtimeout.Pending() {
		v.vtimeouts.Stop(f)
	}
	if c := f.cold; c != nil {
		for _, q := range c.tq {
			v.pool().Put(q)
		}
	}
	if !f.isUDP {
		if f.cold != nil { // never the shared defaults'
			f.cold = nil
		}
		l := v.freeList(f.inline)
		if l.tick != v.sweepTick {
			l.tick, l.mark = v.sweepTick, len(l.recs)
		}
		l.recs = append(l.recs, f)
	}
	return false
}

// freeList holds the parked records of one kind. created counts the kind's
// creates since the last sweep, which trims recs to it (trimParked). recs[mark:]
// were parked in datapath call tick (v.sweepTick, advanced once per packet),
// and newFlow skips them: egressRun/ingressRun may hold the record they evicted.
type freeList struct {
	recs                []*Flow
	created, tick, mark int
}

// freeList returns the list of senderFlows or of bare records.
func (v *VSwitch) freeList(sender bool) *freeList {
	if sender {
		return &v.parked[1]
	}
	return &v.parked[0]
}

// trimParked cuts each free list to as many records as were created of its
// kind since the previous sweep, plus an eighth of that as slack, or to none: a
// vSwitch that stops sweeping (timer GC on an empty table, restart) keeps
// none. The slack absorbs the next period's swing in demand, which an exact
// trim hands to the collector and then allocates again (ARCHITECTURE.md "The
// trim").
func (v *VSwitch) trimParked(toDemand bool) {
	for i := range v.parked {
		l := &v.parked[i]
		keep := 0
		if toDemand {
			keep = min(len(l.recs), l.created+l.created/8)
		}
		clear(l.recs[keep:])
		l.recs, l.created, l.mark = l.recs[:keep], 0, min(l.mark, keep)
	}
}

// ParkedFlows is the length of the free lists.
func (v *VSwitch) ParkedFlows() int { return len(v.parked[0].recs) + len(v.parked[1].recs) }

// sweepNow removes closed and idle flows in one pass over the table: the lazy
// packet-driven sweep, rate-limited to once per GCInterval, and the
// SweepInterval timer's.
func (v *VSwitch) sweepNow(now sim.Time) {
	v.lastSweep = now
	removed := v.Table.Sweep(v.gcKeep(now))
	v.Metrics.FlowsRemoved.Add(int64(removed))
	v.Metrics.FlowTableSize.Add(-int64(removed))
	v.trimParked(true)
}

// onSweepTick is the SweepInterval timer body: sweep, then stay armed only
// while there are flows left to watch (an empty table lets the event queue
// drain and the simulation end).
func (v *VSwitch) onSweepTick() {
	v.sweepNow(v.Sim.Now())
	if v.Table.Len() > 0 {
		v.sweepTimer.Reset(v.Cfg.SweepInterval)
	} else {
		v.trimParked(false)
	}
}

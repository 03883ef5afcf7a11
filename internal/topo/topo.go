// Package topo builds the paper's experiment topologies (Figure 7): the
// dumbbell, the multi-hop multi-bottleneck parking lot, and the single-switch
// star used by the incast and macrobenchmark workloads. Each builder wires
// hosts, switches, links, routes, guest TCP stacks, and (optionally) AC/DC
// modules, and returns a Net handle the workloads drive.
package topo

import (
	"fmt"
	"strings"

	"acdc/internal/audit"
	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/metrics"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
)

// bufferAlpha is every switch buffer's dynamic-threshold α.
const bufferAlpha = 1.0

// Options configures a topology build.
type Options struct {
	// LinkRate is every link's rate in bits/sec (default 10 Gbps).
	LinkRate int64
	// LinkDelay is the one-way propagation delay per link (default 5µs).
	LinkDelay sim.Duration
	// BufferBytes is each switch's shared buffer (default 9MB, the G8264).
	BufferBytes int
	// RED configures every switch port's marking behaviour.
	RED netsim.REDConfig
	// Guest is the guest TCP stack configuration for every host.
	Guest tcpstack.Config
	// GuestFor, when set, overrides the guest config per host index — the
	// mixed-stack experiments (Figures 1, 15, 17; Table 1) need different
	// congestion controls on different hosts.
	GuestFor func(host int) *tcpstack.Config
	// ACDC, when non-nil, attaches an AC/DC module to every host.
	ACDC *core.Config
	// ACDCFor, when set, overrides the AC/DC config per host (e.g. per-host
	// β policies in the QoS experiment). Returning nil skips attachment for
	// that host even when ACDC is set.
	ACDCFor func(host int) *core.Config
	// Seed seeds the simulation RNG (default 1).
	Seed int64
	// ChaosSeed seeds the fault injector and gray-loss draws (default Seed),
	// apart from the simulation RNG, so one chaos mix replays across
	// topologies built with different Seeds.
	ChaosSeed int64
	Env
}

// Defaults fills zero fields with the paper's testbed values.
func (o Options) withDefaults() Options {
	if o.LinkRate == 0 {
		o.LinkRate = 10e9
	}
	if o.LinkDelay == 0 {
		o.LinkDelay = 5 * sim.Microsecond
	}
	if o.BufferBytes == 0 {
		o.BufferBytes = 9 << 20
	}
	if o.Guest.MTU == 0 {
		o.Guest = tcpstack.DefaultConfig()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ChaosSeed == 0 {
		o.ChaosSeed = o.Seed
	}
	return o
}

// DefaultMarkThreshold returns the WRED/ECN threshold used when marking is
// on: 90KB at 10Gbps (≈65 1.5K packets / 10 jumbo packets, the DCTCP-style
// K the testbed switches were configured with).
const DefaultMarkThreshold = 90_000

// Net is a built topology.
type Net struct {
	Sim      *sim.Simulator
	Pool     *packet.Pool // shared packet free list for everything on Sim
	Switches []*netsim.Switch
	Hosts    []*netsim.Host
	Stacks   []*tcpstack.Stack
	ACDC     []*core.VSwitch  // nil entries when AC/DC is not attached
	Audits   []*audit.Auditor // parallel to ACDC; nil when Opts.Audit is nil
	Faults   *faults.Injector // nil when no fault profile is active
	Links    []*netsim.Link   // every link in creation order (fault-domain targets)
	Domains  *faults.Domains  // nil when no fabric fault domains are armed
	Opts     Options
	fabric   bool // true for the multi-path builder (fat-tree)
}

// Addr returns host i's address.
func (n *Net) Addr(i int) packet.Addr { return n.Hosts[i].Addr }

// TotalDrops sums packet drops over all switches.
func (n *Net) TotalDrops() int64 {
	var d int64
	for _, sw := range n.Switches {
		d += sw.TotalDrops()
	}
	return d
}

// DropRate aggregates the drop rate over all switches.
func (n *Net) DropRate() float64 {
	var d, s int64
	for _, sw := range n.Switches {
		d += sw.TotalDrops()
		s += sw.TotalSent()
	}
	if d+s == 0 {
		return 0
	}
	return float64(d) / float64(d+s)
}

// AuditViolations sums recorded invariant violations over every attached
// auditor. 0 when auditing is off.
func (n *Net) AuditViolations() int64 {
	var t int64
	for _, a := range n.Audits {
		if a != nil {
			t += a.Total()
		}
	}
	return t
}

// CheckConservation runs netsim's conservation audit over the whole net:
// every link, every switch's shared buffer, and the pool, whose outstanding
// packets are the links' plus those the vSwitch tunnel queues keep.
func (n *Net) CheckConservation() error {
	var held int64
	for _, v := range n.ACDC {
		if v != nil {
			held += int64(v.TunnelQueued())
		}
	}
	return netsim.CheckConservation(n.Links, n.Switches, n.Pool, held)
}

// newNet allocates the container and simulator.
func newNet(o Options) *Net {
	o = o.withDefaults()
	n := &Net{Sim: sim.New(o.Seed), Pool: packet.NewPool(), Opts: o}
	if o.Faults != nil && o.Faults.Enabled() {
		n.Faults = faults.NewInjector(*o.Faults, o.ChaosSeed)
	}
	return n
}

// newLink creates a link and attaches the fault injector when one is active.
// Every link is registered in Links so fault domains can address it by name.
func (n *Net) newLink(name string, dst netsim.Handler) *netsim.Link {
	l := netsim.NewLink(n.Sim, name, n.Opts.LinkRate, n.Opts.LinkDelay, dst)
	l.Pool = n.Pool
	if n.Faults != nil {
		n.Faults.Attach(l)
	}
	n.Links = append(n.Links, l)
	return l
}

func (n *Net) addSwitch(name string) *netsim.Switch {
	sw := netsim.NewSwitch(n.Sim, name,
		netsim.NewSharedBuffer(n.Opts.BufferBytes, bufferAlpha))
	sw.Pool = n.Pool
	n.Switches = append(n.Switches, sw)
	return sw
}

// addHost creates a host attached to sw and returns its index.
func (n *Net) addHost(sw *netsim.Switch, addr packet.Addr, name string) int {
	o := n.Opts
	h := netsim.NewHost(n.Sim, name, addr)
	h.Pool = n.Pool
	h.NIC = n.newLink(name+".up", sw)
	down := n.newLink(name+".down", h)
	sw.AddRoute(addr, sw.AddPort(down, o.RED))
	n.Hosts = append(n.Hosts, h)
	idx := len(n.Hosts) - 1
	guest := o.Guest
	if o.GuestFor != nil {
		if g := o.GuestFor(idx); g != nil {
			guest = *g
		}
	}
	n.Stacks = append(n.Stacks, tcpstack.NewStack(n.Sim, h, guest))
	acdcCfg := o.ACDC
	if o.ACDCFor != nil {
		acdcCfg = o.ACDCFor(idx)
	}
	if acdcCfg != nil {
		v := core.Attach(n.Sim, h, *acdcCfg)
		n.ACDC = append(n.ACDC, v)
		if o.Audit != nil {
			n.Audits = append(n.Audits, audit.Attach(v, *o.Audit))
		} else {
			n.Audits = append(n.Audits, nil)
		}
	} else {
		n.ACDC = append(n.ACDC, nil)
		n.Audits = append(n.Audits, nil)
	}
	return idx
}

// connectSwitches wires a bidirectional trunk between two switches.
func (n *Net) connectSwitches(a, b *netsim.Switch) (portAtoB, portBtoA int) {
	o := n.Opts
	ab := n.newLink(a.Name+">"+b.Name, b)
	ba := n.newLink(b.Name+">"+a.Name, a)
	return a.AddPort(ab, o.RED), b.AddPort(ba, o.RED)
}

// Star builds n hosts around a single switch (the macrobenchmark fabric; 48
// hosts model the 48-port G8264 with one flow per NIC).
func Star(n int, o Options) *Net {
	net := newNet(o)
	sw := net.addSwitch("tor")
	for i := 0; i < n; i++ {
		net.addHost(sw, hostAddr(i), fmt.Sprintf("h%d", i))
	}
	net.armEnv()
	return net
}

// Dumbbell builds the Figure 7a topology: `pairs` senders on one switch,
// `pairs` receivers on another, one shared bottleneck trunk. Hosts 0..pairs-1
// are senders s1..sN; hosts pairs..2*pairs-1 are receivers r1..rN.
func Dumbbell(pairs int, o Options) *Net {
	net := newNet(o)
	left := net.addSwitch("left")
	right := net.addSwitch("right")
	lr, rl := net.connectSwitches(left, right)
	for i := 0; i < pairs; i++ {
		net.addHost(left, hostAddr(i), fmt.Sprintf("s%d", i+1))
	}
	for i := 0; i < pairs; i++ {
		idx := net.addHost(right, hostAddr(pairs+i), fmt.Sprintf("r%d", i+1))
		// Senders reach receivers over the trunk.
		left.AddRoute(net.Hosts[idx].Addr, lr)
	}
	for i := 0; i < pairs; i++ {
		right.AddRoute(net.Hosts[i].Addr, rl)
	}
	net.armEnv()
	return net
}

// ParkingLot builds the Figure 7b multi-hop, multi-bottleneck chain:
// switches SW0–SW3, the receiver on SW0 (host index 0), and five senders
// spread along the chain (1@SW1, 2@SW2, 2@SW3) so flows cross different
// numbers of bottlenecks.
func ParkingLot(o Options) *Net {
	net := newNet(o)
	sws := make([]*netsim.Switch, 4)
	for i := range sws {
		sws[i] = net.addSwitch(fmt.Sprintf("sw%d", i))
	}
	// Chain trunks sw3→sw2→sw1→sw0 (toward the receiver) and reverse.
	type trunk struct{ fwd, rev int }
	trunks := make([]trunk, 3) // trunks[i] connects sws[i] and sws[i+1]
	for i := 0; i < 3; i++ {
		f, r := net.connectSwitches(sws[i], sws[i+1])
		trunks[i] = trunk{fwd: f, rev: r}
	}
	recv := net.addHost(sws[0], hostAddr(0), "recv")
	placement := []int{1, 2, 2, 3, 3}
	for i, swIdx := range placement {
		net.addHost(sws[swIdx], hostAddr(i+1), fmt.Sprintf("s%d", i+1))
	}
	// Routes: every switch forwards the receiver's address down-chain and
	// each sender's address up-chain.
	for i := 1; i < 4; i++ {
		sws[i].AddRoute(net.Hosts[recv].Addr, trunks[i-1].rev)
	}
	for i, swIdx := range placement {
		addr := net.Hosts[i+1].Addr
		for s := 0; s < swIdx; s++ {
			sws[s].AddRoute(addr, trunks[s].fwd)
		}
	}
	net.armEnv()
	return net
}

// armEnv schedules the restart plan and then the fabric fault domains, once
// every host, AC/DC module and link exists. Called at the end of each
// topology builder. A restart plan that names a host the topology lacks
// panics, as a fault domain that matches no link does: a plan that silently
// restarts nothing reads as an all-clear.
func (n *Net) armEnv() {
	if p := n.Opts.Restart; p != nil {
		for _, h := range p.Hosts {
			if h >= len(n.Hosts) {
				panic(fmt.Sprintf("restart: %s names host %d, the topology has %d", p, h, len(n.Hosts)))
			}
		}
		var targets []faults.RestartTarget
		for i, v := range n.ACDC {
			if v != nil && p.AppliesTo(i) {
				targets = append(targets, v)
			}
		}
		p.Schedule(n.Sim, targets)
	}
	if len(n.Opts.Fabric) > 0 {
		n.Domains = faults.NewDomains(n.Opts.Fabric, n.Opts.ChaosSeed)
		n.Domains.Schedule(n.Sim, n)
	}
}

// LinksMatching implements faults.FabricView: links whose name matches
// pattern exactly, or by prefix when the pattern ends in '*'.
func (n *Net) LinksMatching(pattern string) []*netsim.Link {
	prefix, wild := strings.CutSuffix(pattern, "*")
	var out []*netsim.Link
	for _, l := range n.Links {
		if (wild && strings.HasPrefix(l.Name, prefix)) || (!wild && l.Name == pattern) {
			out = append(out, l)
		}
	}
	return out
}

// SwitchLinks implements faults.FabricView: every link attached to the named
// switch — its egress ports plus the links delivering into it — so a
// switch-down domain isolates the box in both directions.
func (n *Net) SwitchLinks(name string) []*netsim.Link {
	var sw *netsim.Switch
	for _, s := range n.Switches {
		if s.Name == name {
			sw = s
			break
		}
	}
	if sw == nil {
		return nil
	}
	var out []*netsim.Link
	for i := 0; i < sw.NumPorts(); i++ {
		out = append(out, sw.Port(i))
	}
	for _, l := range n.Links {
		if dst, ok := l.Dst.(*netsim.Switch); ok && dst == sw {
			out = append(out, l)
		}
	}
	return out
}

// HasFabric reports whether this topology has multi-path forwarding or
// armed fault domains — the signal for telemetry layers to include the
// fabric snapshot. Single-path builders without domains return false, so
// their reports stay byte-identical to pre-fabric output.
func (n *Net) HasFabric() bool { return n.fabric || n.Domains != nil }

// FabricSnapshot renders link-lifecycle, per-reason drop, and ECMP counters
// as a metrics snapshot, merged with the fault-domain scheduler's own
// counters. Per-link and per-switch entries appear only when non-zero, so a
// healthy fabric stays compact.
func (n *Net) FabricSnapshot() metrics.Snapshot {
	c := map[string]int64{}
	add := func(name string, v int64) {
		if v != 0 {
			c[name] += v
		}
	}
	var queue, fault, down int64
	for _, l := range n.Links {
		queue += l.Stats.Drops
		fault += l.Stats.DropsFault
		down += l.Stats.DropsDown
		add(fmt.Sprintf("link_down_events_total{link=%s}", l.Name), l.Stats.DownEvents)
		add(fmt.Sprintf("link_up_events_total{link=%s}", l.Name), l.Stats.UpEvents)
		add(fmt.Sprintf("link_drops_total{link=%s,reason=queue}", l.Name), l.Stats.Drops)
		add(fmt.Sprintf("link_drops_total{link=%s,reason=fault}", l.Name), l.Stats.DropsFault)
		add(fmt.Sprintf("link_drops_total{link=%s,reason=down}", l.Name), l.Stats.DropsDown)
	}
	add("link_drops_total{reason=queue}", queue)
	add("link_drops_total{reason=fault}", fault)
	add("link_drops_total{reason=down}", down)
	for _, sw := range n.Switches {
		add("ecmp_forwarded_total", sw.Stats.EcmpForwarded)
		add("ecmp_failovers_total", sw.Stats.EcmpFailovers)
		add("ecmp_blackholes_total", sw.Stats.Blackholes)
		add(fmt.Sprintf("ecmp_failovers_total{switch=%s}", sw.Name), sw.Stats.EcmpFailovers)
		add(fmt.Sprintf("ecmp_blackholes_total{switch=%s}", sw.Name), sw.Stats.Blackholes)
	}
	snap := metrics.Snapshot{Counters: c}
	if n.Domains != nil {
		snap = metrics.Merge(snap, n.Domains.Registry().Snapshot())
	}
	return snap
}

// FleetSnapshot merges every attached vSwitch's registry into one view, plus
// the fault injector's counters when a chaos profile is active and the
// fabric's when the topology has one (HasFabric), so injected degradation
// shows up next to the datapath reaction it caused. ok is false when the net
// has no AC/DC modules (the CUBIC/DCTCP baselines).
func (n *Net) FleetSnapshot() (snap metrics.Snapshot, ok bool) {
	var snaps []metrics.Snapshot
	for _, v := range n.ACDC {
		if v != nil {
			snaps = append(snaps, v.Metrics.Snapshot())
		}
	}
	if len(snaps) == 0 {
		return metrics.Snapshot{}, false
	}
	if n.Faults != nil {
		snaps = append(snaps, n.Faults.Registry().Snapshot())
	}
	if n.HasFabric() {
		snaps = append(snaps, n.FabricSnapshot())
	}
	return metrics.Merge(snaps...), true
}

func hostAddr(i int) packet.Addr {
	return packet.MakeAddr(10, 0, byte(i/250), byte(i%250+1))
}

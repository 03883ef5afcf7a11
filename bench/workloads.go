package main

import (
	"math/rand"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/sim"
	"acdc/internal/stats"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/trace"
	"acdc/internal/workload"
)

// workloads is the fixed set. BENCHMARK.json names the same four.
var workloads = []spec{
	{"incast47", "Fig 18: 47-to-1 CUBIC-under-AC/DC incast on a star; long flows, one hot queue, shallow event heap: core and tcpstack steady state do the most work", buildIncast},
	{"fabric-stride", "k=4 fat-tree, native DCTCP guests, no vSwitch: sim and netsim dominate and core is absent, so a vSwitch change must show no movement here", buildStride},
	{"mice-churn", "68 closed-loop clients open, send one web-search message, close: handshake, FIN, TIME_WAIT, flow insert and idle GC, a deep event heap, allocation per packet", buildChurn},
	{"vswitch-10k", "Fig 11/12 datapath only: 10k established flows through one vSwitch, no events and no stack; smallest packets, where per-packet cost dominates", buildVSwitch},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func guest(mtu int, cc string, ecn tcpstack.ECNMode) tcpstack.Config {
	g := tcpstack.DefaultConfig()
	g.MTU, g.CC, g.ECN = mtu, cc, ecn
	return g
}

func scaled(d sim.Duration, scale float64) sim.Duration {
	return sim.Duration(float64(d) * scale)
}

// Bulk flows are fed in chunks by a periodic event, not given one endless
// write, so that stopping the feed lets the fabric drain and the packet pool
// be checked for leaks.
const (
	feedEvery = sim.Millisecond
	feedChunk = 2 << 20 // written when fewer bytes than this are undelivered
	drainStep = 10 * sim.Millisecond
	drainMax  = 100 // steps
)

type bulkFlow struct {
	ms     *workload.Messenger
	queued int64 // written so far; 0 until the flow's first write
	start  int64 // delivered at window start
	last   int64 // delivered at the previous slice end
}

// netFixture is what the three simulated workloads share: a built topology,
// tracked bulk flows, slices of simulated time and the counter read-out.
type netFixture struct {
	net      *topo.Net
	m        *workload.Manager
	rng      *rand.Rand   // the workload generator's; the only thing --seed reaches
	span     sim.Duration // simulated time per slice
	chunk    int64        // bulk write size; scaled so a smoke run's drain is short too
	bulk     []*bulkFlow
	stopped  bool
	winStart sim.Time
	opened   int64
	retrans  int64 // from connections already closed
	tail     stats.Sample
	inWindow bool

	opsTried, opsFailed int64
}

func newNetFixture(net *topo.Net, seed int64, scale float64, span sim.Duration) *netFixture {
	return &netFixture{net: net, m: workload.NewManager(net), rng: rand.New(rand.NewSource(seed)),
		span: scaled(span, scale), chunk: max(64<<10, int64(feedChunk*scale))}
}

// within draws a start offset in [0, d).
func (f *netFixture) within(d sim.Duration) sim.Duration {
	return sim.Duration(f.rng.Int63n(int64(d)))
}

func (f *netFixture) open(from, to int) *workload.Messenger {
	f.opened++
	return f.m.Open(from, to)
}

// addBulk dials a bulk flow whose first write happens after delay.
func (f *netFixture) addBulk(from, to int, delay sim.Duration) {
	b := &bulkFlow{ms: f.open(from, to)}
	f.bulk = append(f.bulk, b)
	f.net.Sim.Schedule(delay, func() { f.top(b) })
}

func (f *netFixture) top(b *bulkFlow) {
	b.queued += f.chunk
	b.ms.SendBulk(f.chunk)
}

func (f *netFixture) feed() {
	if f.stopped {
		return
	}
	for _, b := range f.bulk {
		if b.queued > 0 && b.queued-b.ms.Delivered() < f.chunk {
			f.top(b)
		}
	}
	f.net.Sim.ScheduleFunc(feedEvery, f.feed)
}

func (f *netFixture) hostPackets() int64 {
	var n int64
	for _, h := range f.net.Hosts {
		n += h.RecvPackets
	}
	return n
}

func (f *netFixture) slice() int64 {
	before := f.hostPackets()
	f.net.Sim.RunFor(f.span)
	// One op per bulk flow and slice: it fails when the flow made no progress.
	for _, b := range f.bulk {
		d := b.ms.Delivered()
		f.opsTried++
		if d == b.last {
			f.opsFailed++
		}
		b.last = d
	}
	return f.hostPackets() - before
}

func (f *netFixture) pending() int { return f.net.Sim.Pending() }

func (f *netFixture) startWindow() {
	f.inWindow = true
	f.winStart = f.net.Sim.Now()
	for _, b := range f.bulk {
		b.start = b.ms.Delivered()
		b.last = b.start
	}
	for _, l := range f.net.Links {
		l.Stats.MaxQueueBytes = 0
	}
}

func (f *netFixture) counters() counters {
	n := f.net
	c := counters{
		pkts:        f.hostPackets(),
		events:      int64(n.Sim.Processed),
		poolNews:    n.Pool.News,
		poolOut:     n.Pool.Gets - n.Pool.Puts,
		connsOpened: f.opened,
		retransSegs: f.retrans,
	}
	for _, l := range n.Links {
		c.hops += l.Stats.SentPackets
		c.drops += l.Stats.Drops + l.Stats.DropsFault + l.Stats.DropsDown
		c.ceMarks += l.Stats.Marks
	}
	for _, sw := range n.Switches {
		c.badCounters += sw.Stats.NoRoute + sw.Stats.Blackholes
	}
	for _, b := range f.bulk {
		c.retransSegs += b.ms.Cli.RetransSegs
	}
	for _, v := range n.ACDC {
		if v != nil {
			addVSwitch(&c, v)
		}
	}
	return c
}

func addVSwitch(c *counters, v *core.VSwitch) {
	s := v.Stats()
	c.corePkts += s.EgressSegs + s.IngressSegs
	c.rwndRewrite += s.RwndRewrites
	c.flowsMade += s.FlowsCreated
	c.flowsLive += int64(v.FlowCount())
	c.failOpen += s.FailOpen
	c.badCounters += s.MalformedOptions
}

// windowResults fills the simulated-time results shared by the net fixtures:
// goodput and fairness over the tracked bulk flows, the tail from f.tail.
func (f *netFixture) windowResults(o *outcome, extraBytes int64) {
	secs := (f.net.Sim.Now() - f.winStart).Seconds()
	per := make([]float64, len(f.bulk))
	total := extraBytes
	for i, b := range f.bulk {
		d := b.ms.Delivered() - b.start
		per[i] = float64(d)
		total += d
	}
	o.goodputGbps = float64(total) * 8 / secs / 1e9
	if len(per) > 0 {
		o.fairness = stats.JainFairness(per)
	}
	o.tailUS = f.tail.Percentile(99) / 1e3
	o.tailN = f.tail.N()
}

// drain stops the feed and runs until every bulk byte written has arrived.
func (f *netFixture) drain(idle func() bool) {
	f.stopped = true
	for i := 0; i < drainMax; i++ {
		f.net.Sim.RunFor(drainStep)
		done := idle == nil || idle()
		for _, b := range f.bulk {
			done = done && b.ms.Delivered() == b.queued
		}
		if done {
			break
		}
	}
	// Let delayed ACKs and the last window updates land.
	f.net.Sim.RunFor(drainStep)
}

// digest hashes what the simulation produced: events fired, bytes per host,
// per-link traffic, drops and marks, every vSwitch's counters.
func (f *netFixture) digest(o *outcome) {
	d := newDigester()
	n := f.net
	d.add(n.Sim.Processed, int64(n.Sim.Now()))
	for _, h := range n.Hosts {
		d.add(h.RecvPackets, h.RecvBytes, h.SentPackets, h.SentBytes)
	}
	for _, l := range n.Links {
		d.add(l.Stats.SentPackets, l.Stats.SentBytes, l.Stats.Drops, l.Stats.Marks)
		if kb := float64(l.Stats.MaxQueueBytes) / 1e3; kb > o.queueMaxKB {
			o.queueMaxKB = kb
		}
	}
	for _, v := range n.ACDC {
		if v != nil {
			d.add(v.Stats())
		}
	}
	d.add(o.goodputGbps, o.fairness, o.tailUS, o.opsTried, o.opsFailed)
	o.digest = d.Sum64()
}

// --- incast47 ---------------------------------------------------------------

type incastFixture struct {
	*netFixture
	prober *workload.Prober
}

func buildIncast(seed int64, scale float64) fixture {
	const senders, mtu = 47, 9000
	ac := core.DefaultConfig()
	ac.MTU = mtu
	ac.MinRwndBytes = (mtu - 40) / 2 // §5.2: byte-granular floor below 2 MSS
	net := topo.Star(senders+2, topo.Options{
		Guest: guest(mtu, "cubic", tcpstack.ECNOff),
		ACDC:  &ac,
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
	})
	f := &incastFixture{netFixture: newNetFixture(net, seed, scale, 125*sim.Millisecond)}
	recv := senders
	// Dialed before congestion exists, as sockperf's connection is.
	f.prober = workload.NewProber(f.m, senders+1, recv)
	f.opened++
	for i := 0; i < senders; i++ {
		// The seed staggers the first writes; everything else is fixed.
		f.addBulk(i, recv, f.within(sim.Millisecond))
	}
	f.feed()
	net.Sim.RunFor(scaled(200*sim.Millisecond, scale))
	return f
}

func (f *incastFixture) startWindow() {
	f.netFixture.startWindow()
	f.prober.Start()
}

func (f *incastFixture) finish() outcome {
	var o outcome
	f.prober.Stop()
	f.tail = *f.prober.Samples
	f.windowResults(&o, 0)
	f.drain(nil)
	o.opsTried, o.opsFailed = f.opsTried, f.opsFailed
	f.digest(&o)
	return o
}

// --- fabric-stride ----------------------------------------------------------

type strideFixture struct {
	*netFixture
	miceBytes   int64
	miceOut     int64 // requests in flight
	miceDoneWin int64 // bytes of mice completed inside the window
}

func buildStride(seed int64, scale float64) fixture {
	const mtu = 9000
	const miceBytes, micePeriod = 16 << 10, 5 * sim.Millisecond
	cfg := topo.FatTreeConfig{K: 4}
	net := topo.FatTree(cfg, topo.Options{
		Guest: guest(mtu, "dctcp", tcpstack.ECNDCTCP),
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
	})
	f := &strideFixture{netFixture: newNetFixture(net, seed, scale, 6*sim.Millisecond), miceBytes: miceBytes}
	n := cfg.Hosts()
	for i := 0; i < n; i++ {
		for j := 1; j <= 4; j++ {
			f.addBulk(i, (i+j)%n, 0)
		}
		mice := f.open(i, (i+n/2)%n)
		var tick func()
		tick = func() {
			if f.stopped {
				return
			}
			f.miceOut++
			f.opsTried++
			counted := f.inWindow
			mice.SendMessage(miceBytes, func(fct sim.Duration) {
				f.miceOut--
				if counted {
					f.tail.Add(float64(fct))
					f.miceDoneWin += miceBytes
				}
			})
			net.Sim.Schedule(micePeriod, tick)
		}
		net.Sim.Schedule(f.within(micePeriod), tick)
	}
	f.feed()
	net.Sim.RunFor(scaled(20*sim.Millisecond, scale))
	return f
}

func (f *strideFixture) finish() outcome {
	var o outcome
	f.windowResults(&o, f.miceDoneWin)
	f.drain(func() bool { return f.miceOut == 0 })
	// A mouse still in flight after the drain failed.
	o.opsTried, o.opsFailed = f.opsTried, f.opsFailed+f.miceOut
	f.digest(&o)
	return o
}

// --- mice-churn -------------------------------------------------------------

type churnFixture struct {
	*netFixture
	sizes    *trace.Dist
	inFlight int64
	perCli   []float64 // bytes completed per client inside the window
	doneWin  int64
}

func buildChurn(seed int64, scale float64) fixture {
	const hosts, perHost, mtu = 17, 4, 1500
	ac := core.DefaultConfig()
	ac.MTU = mtu
	ac.IdleTimeout = 20 * sim.Millisecond
	ac.GCInterval = 5 * sim.Millisecond
	net := topo.Star(hosts, topo.Options{
		Guest: guest(mtu, "cubic", tcpstack.ECNOff),
		ACDC:  &ac,
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
	})
	f := &churnFixture{
		netFixture: newNetFixture(net, seed, scale, 1200*sim.Microsecond),
		sizes:      trace.WebSearch(),
		perCli:     make([]float64, hosts*perHost),
	}
	for c := range f.perCli {
		f.request(c, c%hosts)
	}
	net.Sim.RunFor(scaled(45*sim.Millisecond, scale))
	return f
}

// request runs one closed-loop client step: dial, one message, close both
// ends, then the next request.
func (f *churnFixture) request(cli, host int) {
	if f.stopped {
		return
	}
	to := f.rng.Intn(len(f.net.Hosts) - 1)
	if to >= host {
		to++
	}
	size := f.sizes.Sample(f.rng)
	if size > 128<<10 {
		size = 128 << 10
	}
	ms := f.open(host, to)
	start := f.net.Sim.Now()
	counted := f.inWindow
	f.inFlight++
	f.opsTried++
	ms.SendMessage(size, func(sim.Duration) {
		f.inFlight--
		if counted {
			// From the dial: a user pays for the handshake too.
			f.tail.Add(float64(f.net.Sim.Now() - start))
			f.perCli[cli] += float64(size)
			f.doneWin += size
		}
		// Close from a fresh event, not from inside the receive path.
		f.net.Sim.Schedule(0, func() {
			f.retrans += ms.Cli.RetransSegs
			ms.Cli.Close()
			ms.Srv().Close()
			f.request(cli, host)
		})
	})
}

func (f *churnFixture) finish() outcome {
	var o outcome
	f.windowResults(&o, f.doneWin)
	o.fairness = stats.JainFairness(f.perCli)
	// 50 ms of simulated drain; a request still open after it failed.
	f.stopped = true
	f.net.Sim.RunFor(50 * sim.Millisecond)
	o.opsTried, o.opsFailed = f.opsTried, f.opsFailed+f.inFlight
	f.digest(&o)
	return o
}

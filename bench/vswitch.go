package main

import (
	"math/rand"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/stats"
)

// The vswitch-10k fixture: one host with an AC/DC module between a sink
// Demux and a NIC that refuses every packet, so a packet's whole life is
// build → hook → pool, with no event scheduled by the network. The traffic
// is the paper's §5.1 steady state, not a replayed template: sequence
// numbers and cumulative ACKs advance, the peer's PACK totals grow, the
// sender keeps as much in flight as the window it was last told, and one
// feedback in sixteen reports congestion — so the virtual windows are cut
// and regrow, and every rewrite is a real one.
const (
	vsMSS      = 1460
	vsWScale   = 7
	vsPeerPort = 5001
	vsLineGbps = 10.0
	vsCEOneIn  = 16
	vsWarm     = 20     // warm-up visits per flow
	vsVisits   = 28_000 // visits per slice: 84 k packets
)

type vsRole uint8

const (
	vsBoth vsRole = iota // even flows send, odd flows receive
	vsSend
	vsRecv
)

// vsFlow is one established connection as the two guests see it.
type vsFlow struct {
	remote packet.Addr
	port   uint16 // the ephemeral port, on whichever side dialed
	sender bool   // our guest sends the data

	nxt   uint32 // next data sequence number (ours if sender, the peer's if not)
	acked uint32 // cumulative ACK the peer has sent us (sender only)
	wnd   int64  // window our guest was last told, bytes (sender only)
	// The peer vSwitch's cumulative PACK counters (sender only).
	fbTotal, fbMarked uint32
}

// rejectAll is the NIC's queue policy: nothing is ever enqueued, so egress
// ends at the pool. It counts what the vSwitch put on the wire.
type rejectAll struct{ wire, payload int64 }

func (r *rejectAll) OnEnqueue(_ *netsim.Link, p *packet.Packet) bool {
	r.wire += int64(p.WireLen())
	r.payload += int64(p.PayloadLen())
	return false
}

func (r *rejectAll) OnDequeue(*netsim.Link, *packet.Packet) {}

type vsFixture struct {
	s     *sim.Simulator
	host  *netsim.Host
	v     *core.VSwitch // nil: plain vSwitch, the paper's baseline
	pool  *packet.Pool
	nic   rejectAll
	rng   *rand.Rand
	flows []vsFlow
	order []int // seeded visiting order
	cur   int

	visits  int   // per slice
	offered int64 // packets handed to Output or HandlePacket
	acksIn  int64 // PACK-carrying ACKs offered to the sender half
	rxWire  int64 // what the vSwitch delivered to the guest
	rxPay   int64

	watched []int64 // every window flow 0 was told, for the realism test
	win0    struct{ wire, payload int64 }
}

// HandlePacket is the sink Demux: the guest end of the ingress path.
func (f *vsFixture) HandlePacket(p *packet.Packet) {
	ip := p.IP()
	f.rxWire += int64(p.WireLen())
	f.rxPay += int64(p.PayloadLen())
	t := ip.TCP()
	if i := int(uint32(ip.Src()) & 0xffffff); i < len(f.flows) && f.flows[i].sender && !t.HasFlags(packet.FlagSYN) {
		fl := &f.flows[i]
		fl.wnd = int64(t.Window()) << vsWScale
		if i == 0 && len(f.watched) < cap(f.watched) {
			f.watched = append(f.watched, fl.wnd)
		}
	}
	f.pool.Put(p)
}

func newVSFixture(seed int64, nFlows int, role vsRole, attach bool) *vsFixture {
	s := sim.New(1)
	f := &vsFixture{s: s, pool: packet.NewPool(), rng: rand.New(rand.NewSource(seed)),
		flows: make([]vsFlow, nFlows), watched: make([]int64, 0, 1<<14)}
	f.host = netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	f.host.Pool = f.pool
	f.host.Demux = f
	f.host.NIC = netsim.NewLink(s, "nic", 10e9, sim.Microsecond, netsim.HandlerFunc(func(*packet.Packet) {}))
	f.host.NIC.Policy = &f.nic
	if attach {
		cfg := core.DefaultConfig()
		cfg.MTU = vsMSS + 40 // the paper reports 1.5 KB: most packets per byte
		f.v = core.Attach(s, f.host, cfg)
	}
	for i := range f.flows {
		fl := &f.flows[i]
		*fl = vsFlow{remote: vsRemote(i), port: vsPort(i), nxt: 1001, acked: 1001, wnd: 10 * vsMSS,
			sender: role == vsSend || (role == vsBoth && i%2 == 0)}
		f.handshake(fl)
	}
	f.order = f.rng.Perm(nFlows)
	return f
}

func vsRemote(i int) packet.Addr { return packet.MakeAddr(11, byte(i>>16), byte(i>>8), byte(i)) }
func vsPort(i int) uint16        { return uint16(30000 + i%20000) }

var vsSynOpts = packet.BuildSynOptions(vsMSS, vsWScale, true)

// handshake establishes fl through the datapath: whoever sends the data dialed.
func (f *vsFixture) handshake(fl *vsFlow) {
	syn := packet.TCPFields{Seq: 1000, Flags: packet.FlagSYN, Window: 65535, Options: vsSynOpts}
	synAck := packet.TCPFields{Seq: 5000, Ack: 1001, Flags: packet.FlagSYN | packet.FlagACK, Window: 65535, Options: vsSynOpts}
	if fl.sender {
		f.out(fl, syn, 0)
		f.in(fl, synAck, packet.NotECT, 0)
	} else {
		f.in(fl, syn, packet.NotECT, 0)
		f.out(fl, synAck, 0)
	}
}

// flowCycle plays the whole life of a flow the table has not seen: handshake,
// then FIN and its ACK in both directions.
func (f *vsFixture) flowCycle(i int) {
	fl := &vsFlow{remote: vsRemote(i), port: vsPort(i), sender: true}
	f.handshake(fl)
	f.out(fl, packet.TCPFields{Seq: 1001, Ack: 5001, Flags: packet.FlagACK, Window: 65535}, 0)
	f.out(fl, packet.TCPFields{Seq: 1001, Ack: 5001, Flags: packet.FlagFIN | packet.FlagACK, Window: 65535}, 0)
	f.in(fl, packet.TCPFields{Seq: 5001, Ack: 1002, Flags: packet.FlagFIN | packet.FlagACK, Window: 65535}, packet.ECT0, 0)
	f.out(fl, packet.TCPFields{Seq: 1002, Ack: 5002, Flags: packet.FlagACK, Window: 65535}, 0)
}

// out sends one packet from our guest; in delivers one from the peer. Ports
// follow who dialed: the sender dials out, the receiver was dialed.
func (f *vsFixture) out(fl *vsFlow, t packet.TCPFields, payload int) {
	t.SrcPort, t.DstPort = fl.port, vsPeerPort
	if !fl.sender {
		t.SrcPort, t.DstPort = vsPeerPort, fl.port
	}
	f.offered++
	f.host.Output(packet.BuildIn(f.pool, f.host.Addr, fl.remote, packet.NotECT, t, payload))
}

func (f *vsFixture) in(fl *vsFlow, t packet.TCPFields, ecn packet.ECN, payload int) {
	t.SrcPort, t.DstPort = vsPeerPort, fl.port
	if !fl.sender {
		t.SrcPort, t.DstPort = fl.port, vsPeerPort
	}
	f.offered++
	f.host.HandlePacket(packet.BuildIn(f.pool, fl.remote, f.host.Addr, ecn, t, payload))
}

// visit plays one round of one flow: three packets through the vSwitch.
func (f *vsFixture) visit(fl *vsFlow) {
	congested := f.rng.Intn(vsCEOneIn) == 0
	if fl.sender {
		// Sender half (Fig 11): two segments out, one ACK with feedback in.
		for k := 0; k < 2; k++ {
			f.out(fl, packet.TCPFields{Seq: fl.nxt, Ack: 5001, Flags: packet.FlagACK | packet.FlagPSH, Window: 65535}, vsMSS)
			fl.nxt += vsMSS
		}
		// The peer has everything except what the window keeps in flight;
		// the next two segments then fill the window exactly.
		ack := fl.nxt
		if keep := fl.wnd - 2*vsMSS; keep > 0 {
			ack -= uint32(keep)
		}
		if int32(ack-fl.acked) < vsMSS {
			ack = fl.acked + vsMSS // an ACK always covers something new
		}
		got := ack - fl.acked
		fl.acked = ack
		fl.fbTotal += got
		if congested {
			fl.fbMarked += got
		}
		var pack [packet.PACKOptionLen]byte
		packet.EncodePACK(pack[:], packet.PACKInfo{TotalBytes: fl.fbTotal, MarkedBytes: fl.fbMarked})
		f.acksIn++
		f.in(fl, packet.TCPFields{Seq: 5001, Ack: ack, Flags: packet.FlagACK, Window: 65535, Options: pack[:]}, packet.ECT0, 0)
		return
	}
	// Receiver half (Fig 12): two segments in, one ACK out.
	ecn := packet.ECT0
	if congested {
		ecn = packet.CE
	}
	for k := 0; k < 2; k++ {
		f.in(fl, packet.TCPFields{Seq: fl.nxt, Ack: 5001, Flags: packet.FlagACK | packet.FlagPSH, Window: 65535}, ecn, vsMSS)
		fl.nxt += vsMSS
	}
	f.out(fl, packet.TCPFields{Seq: 5001, Ack: fl.nxt, Flags: packet.FlagACK, Window: 65535}, 0)
}

func (f *vsFixture) run(visits int) {
	for i := 0; i < visits; i++ {
		f.visit(&f.flows[f.order[f.cur]])
		if f.cur++; f.cur == len(f.order) {
			f.cur = 0
		}
	}
}

func buildVSwitch(seed int64, scale float64) fixture {
	n := int(10_000 * scale)
	if n < 100 {
		n = 100
	}
	f := newVSFixture(seed, n, vsBoth, true)
	f.visits = int(vsVisits * scale)
	f.run(vsWarm * n)
	return f
}

func (f *vsFixture) slice() int64 {
	before := f.offered
	f.run(f.visits)
	return f.offered - before
}

func (f *vsFixture) pending() int { return f.s.Pending() }

func (f *vsFixture) startWindow() {
	f.win0.wire, f.win0.payload = f.nic.wire+f.rxWire, f.nic.payload+f.rxPay
}

func (f *vsFixture) counters() counters {
	c := counters{
		pkts:     f.offered,
		events:   int64(f.s.Processed),
		hops:     f.host.NIC.Stats.SentPackets,
		poolNews: f.pool.News,
		poolOut:  f.pool.Gets - f.pool.Puts,
		// The refusing NIC is the fixture's terminator, not a loss: its
		// Drops counter is every egress packet and is left out.
	}
	if f.v != nil {
		addVSwitch(&c, f.v)
	}
	return c
}

func (f *vsFixture) finish() outcome {
	var o outcome
	// No simulated clock here, so the simulated-time results are the
	// datapath's own outputs: payload share of the wire bytes it emitted at
	// the NIC's line rate, fairness over the windows it enforced, and the
	// p99 time such a window takes to drain at line rate.
	wire := f.nic.wire + f.rxWire - f.win0.wire
	pay := f.nic.payload + f.rxPay - f.win0.payload
	o.goodputGbps = vsLineGbps * float64(pay) / float64(wire)
	var wnds []float64
	var drain stats.Sample
	for i := range f.flows {
		if fl := &f.flows[i]; fl.sender {
			wnds = append(wnds, float64(fl.wnd))
			drain.Add(float64(fl.wnd) * 8 / vsLineGbps) // ns at 10 Gbps
		}
	}
	o.fairness = stats.JainFairness(wnds)
	o.tailUS, o.tailN = drain.Percentile(99)/1e3, drain.N()
	// An op is a packet; it fails when a hook consumed or dropped it.
	o.opsTried = f.offered
	o.opsFailed = f.host.EgressDropped + f.host.IngressDropped
	d := newDigester()
	d.add(f.offered, f.nic.wire, f.nic.payload, f.rxWire, f.rxPay, f.host.RecvPackets, f.host.SentPackets)
	if f.v != nil {
		d.add(f.v.Stats())
	}
	d.add(o.goodputGbps, o.fairness, o.tailUS)
	o.digest = d.Sum64()
	return o
}
